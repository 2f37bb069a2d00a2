open Parsetree

(* Interprocedural exception flow. Per function, the may-raise set:
   every exception constructor an activation can let escape, seeded
   by syntactic [raise]s, a table of implicit raisers ([Option.get],
   [Hashtbl.find], [failwith], ...) and the declared raises of the
   simulator's blocking primitives (every blocking point can deliver
   [Sim.Killed]), then propagated over the call graph to a fixpoint.
   [try ... with] arms subtract the constructors they match; catch-all
   arms subtract everything, and the set an arm's own body raises
   (including [raise e] of the bound exception) flows back out.

   On top of the raise sets, four rules:

   - [swallowed-control-exn]: a catch-all arm that can absorb a
     control exception ([Sim.Killed]) without re-raising it — the
     process would survive its own kill point;
   - [leak-on-raise] (with {!Lockpass} summaries, on {!Flow}'s
     may-domain walk): a lock or semaphore token is held at a call
     that may raise an exception no enclosing handler catches, with
     no enclosing [Fun.protect] — the grant leaks forever;
   - [ivar-unfilled-on-raise]: an [Ivar.fill] only reachable after a
     possibly-escaping raise point — the readers are stranded;
   - [unmapped-wire-error] / [escaping-raise-into-dispatch] (with
     {!Protocol} dispatchers): an exception reaching an RPC
     dispatcher's handler arm that the [E_*] error mapper only
     catch-alls, or escaping a dispatcher with no handler at all.

   Approximations (see DESIGN.md 4b'''): lambdas are inlined at their
   definition point (a stored closure's raises count where it is
   built); [assert] is ignored; a guarded handler arm neither
   subtracts nor swallows; any enclosing [Fun.protect] absolves a
   leak; [Ivar.fill] is only checked at direct call sites; spawn-like
   closure arguments are analysed in a fresh context and contribute
   nothing to the spawner. *)

module SS = Set.Make (String)
module SM = Map.Make (String)

(* Where a raise entered the current function: directly ([via =
   None]) or through a callee — the hop of a Mayblock-style witness
   chain. *)
type origin = { via : string option; line : int }

type rmap = origin SM.t

type t = {
  graph : Callgraph.t;
  exn_decls : SS.t;
  raise_maps : (string, rmap ref) Hashtbl.t;
}

(* An unresolvable [raise e]: some exception, constructor unknown.
   Escapes everything except a catch-all. *)
let any_exn = "*"

let control_exns = [ "Sim.Killed" ]

(* Blocking primitives deliver the kill signal as [Sim.Killed] at the
   suspension point; the RPC client additionally gives up with
   [Net.Rpc.Timeout]. *)
let declared_raises =
  [
    ("Sim.sleep", [ "Sim.Killed" ]);
    ("Sim.suspend", [ "Sim.Killed" ]);
    ("Sim.suspend_full", [ "Sim.Killed" ]);
    ("Sim.Mailbox.recv", [ "Sim.Killed" ]);
    ("Sim.Mailbox.recv_timeout", [ "Sim.Killed" ]);
    ("Sim.Condition.wait", [ "Sim.Killed" ]);
    ("Sim.Condition.wait_timeout", [ "Sim.Killed" ]);
    ("Sim.Ivar.read", [ "Sim.Killed" ]);
    ("Sim.Semaphore.acquire", [ "Sim.Killed" ]);
    ("Sim.Semaphore.with_acquire", [ "Sim.Killed" ]);
    ("Lock_manager.acquire", [ "Sim.Killed"; "Lock_manager.Wait_cancelled" ]);
    ("Net.recv", [ "Sim.Killed" ]);
    ("Net.recv_timeout", [ "Sim.Killed" ]);
    ("Net.Rpc.call", [ "Sim.Killed"; "Net.Rpc.Timeout" ]);
  ]

(* Stdlib partial functions whose failure mode is an exception. *)
let implicit_raises =
  [
    ("failwith", [ "Failure" ]);
    ("invalid_arg", [ "Invalid_argument" ]);
    ("Option.get", [ "Invalid_argument" ]);
    ("List.hd", [ "Failure" ]);
    ("List.tl", [ "Failure" ]);
    ("Hashtbl.find", [ "Not_found" ]);
    ("List.assoc", [ "Not_found" ]);
    ("List.find", [ "Not_found" ]);
  ]

(* ------------------------------------------------------------------ *)
(* Exception-constructor naming                                        *)
(* ------------------------------------------------------------------ *)

(* [Pstr_exception] declarations, keyed by their dotted module path,
   so that an unqualified raise site and a cross-module handler
   pattern agree on one canonical name ("File_service.File_not_found"
   both from [raise (File_not_found id)] inside file_service.ml and
   from a [Fs.File_not_found] match arm in cluster.ml). *)
let collect_exn_decls (files : Source.file list) =
  let acc = ref SS.empty in
  List.iter
    (fun (f : Source.file) ->
      Option.iter
        (Callgraph.walk_structure
           (fun prefix item ->
             match item.pstr_desc with
             | Pstr_exception te ->
               acc :=
                 SS.add (prefix ^ "." ^ te.ptyexn_constructor.pext_name.txt) !acc
             | _ -> ())
           f.Source.module_name)
        f.Source.ast)
    files;
  !acc

(* Canonical name of an exception constructor used inside function
   [fn]: a qualified path goes through the usual alias/wrapper
   canonicalisation; an unqualified one is qualified against [fn]'s
   enclosing module path, walking outward until a declaration
   matches (builtins like [Failure] stay bare). *)
let resolve_exn t env ~fn lid =
  match Names.flatten lid with
  | [ c ] ->
    let prefix =
      match String.rindex_opt fn '.' with
      | Some i -> String.sub fn 0 i
      | None -> ""
    in
    let parts = if prefix = "" then [] else String.split_on_char '.' prefix in
    let rec up = function
      | [] -> c
      | parts ->
        let cand = String.concat "." parts ^ "." ^ c in
        if SS.mem cand t.exn_decls then cand
        else up (List.rev (List.tl (List.rev parts)))
    in
    up parts
  | path -> Names.canonical env path

(* ------------------------------------------------------------------ *)
(* Handler-arm shapes                                                  *)
(* ------------------------------------------------------------------ *)

type arm_shape = {
  a_all : bool;  (* catch-all: matches any exception *)
  a_ctors : string list;  (* canonical constructors matched *)
  a_bound : string option;  (* variable bound to the exception *)
}

let rec shape_of_pat t env ~fn p =
  match p.ppat_desc with
  | Ppat_any -> { a_all = true; a_ctors = []; a_bound = None }
  | Ppat_var v -> { a_all = true; a_ctors = []; a_bound = Some v.txt }
  | Ppat_alias (p, v) ->
    { (shape_of_pat t env ~fn p) with a_bound = Some v.txt }
  | Ppat_construct ({ txt; _ }, _) ->
    { a_all = false; a_ctors = [ resolve_exn t env ~fn txt ]; a_bound = None }
  | Ppat_or (a, b) ->
    let sa = shape_of_pat t env ~fn a and sb = shape_of_pat t env ~fn b in
    {
      a_all = sa.a_all || sb.a_all;
      a_ctors = sa.a_ctors @ sb.a_ctors;
      a_bound = (match sa.a_bound with Some _ as s -> s | None -> sb.a_bound);
    }
  | Ppat_constraint (p, _) | Ppat_open (_, p) -> shape_of_pat t env ~fn p
  | _ -> { a_all = false; a_ctors = []; a_bound = None }

(* ------------------------------------------------------------------ *)
(* Error mappers (exception -> E_* wire constructor)                   *)
(* ------------------------------------------------------------------ *)

let rec fun_body_cases e =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, b) | Pexp_newtype (_, b) -> fun_body_cases b
  | Pexp_function cases -> Some cases
  | Pexp_match (_, cases) -> Some cases
  | _ -> None

let is_e_ctor_result e =
  match (Flow.strip e).pexp_desc with
  | Pexp_construct ({ txt; _ }, _) ->
    let n = Names.last txt in
    String.length n > 2 && String.sub n 0 2 = "E_"
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Context                                                             *)
(* ------------------------------------------------------------------ *)

type ctx = {
  t : t;
  lock : Lockpass.result;
  dispatch_sites : (string * (Protocol.decl * Protocol.site)) list;
      (* keyed by the dispatcher's function *)
  mappers : (string, SS.t) Hashtbl.t;  (* fn -> explicitly mapped ctors *)
  mutable emit : bool;
  mutable findings : Finding.t list;
}

let collect_mappers t =
  let mappers = Hashtbl.create 8 in
  List.iter
    (fun (n : Callgraph.node) ->
      match Option.map fun_body_cases n.body with
      | Some (Some cases)
        when List.exists (fun c -> is_e_ctor_result c.pc_rhs) cases ->
        let mapped =
          List.concat_map
            (fun c -> (shape_of_pat t n.env ~fn:n.fn c.pc_lhs).a_ctors)
            cases
        in
        Hashtbl.replace mappers n.fn (SS.of_list mapped)
      | _ -> ())
    (Callgraph.nodes_in_order t.graph);
  mappers

(* What a call to [name] may let escape, by name. *)
let callee_raises ctx name =
  match List.assoc_opt name declared_raises with
  | Some l -> l
  | None ->
    if Callgraph.is_conn_call name then [ "Sim.Killed"; "Net.Rpc.Timeout" ]
    else (
      match List.assoc_opt name implicit_raises with
      | Some l -> l
      | None -> (
        match Hashtbl.find_opt ctx.t.raise_maps name with
        | Some m -> List.map fst (SM.bindings !m)
        | None -> []))

(* Witness chain fn -> ... -> raise origin, following [via] links.
   Bounded like Mayblock.chain. *)
let chain t fn exn =
  let rec go acc fn depth =
    if depth > 64 then List.rev (fn :: acc)
    else
      match Hashtbl.find_opt t.raise_maps fn with
      | None -> List.rev (fn :: acc)
      | Some m -> (
        match SM.find_opt exn !m with
        | Some { via = Some v; _ } -> go (fn :: acc) v (depth + 1)
        | Some { via = None; _ } | None -> List.rev (fn :: acc))
  in
  go [] fn 0

let witness_of ctx (node : Callgraph.node) exn (o : origin) =
  match o.via with
  | None -> Printf.sprintf "%s raised at %s:%d" exn node.file o.line
  | Some v ->
    Printf.sprintf "%s escapes via %s (%s:%d)" exn
      (String.concat " -> " (node.fn :: chain ctx.t v exn))
      node.file o.line

let finding ctx f = if ctx.emit then ctx.findings <- f :: ctx.findings

(* ------------------------------------------------------------------ *)
(* Raise-set evaluation                                                *)
(* ------------------------------------------------------------------ *)

let union = SM.union (fun _ a _ -> Some a)

let rec eval ctx (node : Callgraph.node) rebinds e : rmap =
  match e.pexp_desc with
  | Pexp_sequence (a, b) ->
    union (eval ctx node rebinds a) (eval ctx node rebinds b)
  | Pexp_ifthenelse (c, th, el) ->
    let m = union (eval ctx node rebinds c) (eval ctx node rebinds th) in
    (match el with Some el -> union m (eval ctx node rebinds el) | None -> m)
  | Pexp_let (_, vbs, b) ->
    eval_all ctx node rebinds (eval ctx node rebinds b)
      (List.map (fun vb -> vb.pvb_expr) vbs)
  | Pexp_fun (_, default, _, b) ->
    let m = eval ctx node rebinds b in
    (match default with
    | Some d -> union m (eval ctx node rebinds d)
    | None -> m)
  | Pexp_newtype (_, b) -> eval ctx node rebinds b
  | Pexp_function cases ->
    eval_all ctx node rebinds SM.empty (Flow.case_exprs cases)
  | Pexp_try (b, cases) ->
    handle ctx node rebinds ~body_map:(eval ctx node rebinds b) ~cases
  | Pexp_match (scrut, cases) ->
    let exn_cases, val_cases = List.partition Flow.is_exception_case cases in
    let scrut_map = eval ctx node rebinds scrut in
    let scrut_map =
      if exn_cases = [] then scrut_map
      else
        handle ctx node rebinds ~body_map:scrut_map
          ~cases:(List.map Flow.strip_exception_case exn_cases)
    in
    eval_all ctx node rebinds scrut_map (Flow.case_exprs val_cases)
  | Pexp_apply (f, args) -> apply ctx node rebinds e f args
  | Pexp_ident _ -> (
    (* A bare reference passed as a value: the typical higher-order
       wrappers run it on the caller's path (same convention as the
       call graph). *)
    match Callgraph.callee_name ctx.t.graph node.env e with
    | Some n ->
      List.fold_left
        (fun acc exn ->
          if SM.mem exn acc then acc
          else
            SM.add exn
              { via = Some n; line = Callgraph.line_of_loc e.pexp_loc }
              acc)
        SM.empty (callee_raises ctx n)
    | None -> SM.empty)
  | _ -> fallback ctx node rebinds e

and eval_all ctx node rebinds init es =
  List.fold_left (fun acc e -> union acc (eval ctx node rebinds e)) init es

and fallback ctx node rebinds e =
  let acc = ref SM.empty in
  let it =
    {
      Ast_iterator.default_iterator with
      expr = (fun _ e' -> acc := union !acc (eval ctx node rebinds e'));
    }
  in
  Ast_iterator.default_iterator.expr it e;
  !acc

and apply ctx node rebinds e f args =
  let line = Callgraph.line_of_loc e.pexp_loc in
  let eval_args () =
    List.fold_left
      (fun acc (_, a) -> union acc (eval ctx node rebinds a))
      SM.empty args
  in
  match Callgraph.callee_name ctx.t.graph node.env f with
  | Some ("raise" | "raise_notrace") -> (
    match Flow.nolabel_args args with
    | a :: _ -> (
      match (Flow.strip a).pexp_desc with
      | Pexp_construct ({ txt; _ }, arg) ->
        let m =
          SM.singleton
            (resolve_exn ctx.t node.env ~fn:node.fn txt)
            { via = None; line }
        in
        (match arg with
        | Some ae -> union m (eval ctx node rebinds ae)
        | None -> m)
      | Pexp_ident { txt = Longident.Lident v; _ }
        when List.mem_assoc v rebinds ->
        (* [raise e] of the handler-bound exception: re-raises exactly
           what the arm caught. *)
        List.assoc v rebinds
      | _ -> SM.singleton any_exn { via = None; line })
    | [] -> SM.singleton any_exn { via = None; line })
  | Some n when List.mem n Callgraph.spawn_like ->
    (* The closure runs in another process: evaluate it for its own
       findings, but its raises never reach the spawner. *)
    List.iter (fun (_, a) -> ignore (eval ctx node rebinds a)) args;
    SM.empty
  | Some n ->
    let m =
      List.fold_left
        (fun acc exn ->
          if SM.mem exn acc then acc
          else SM.add exn { via = Some n; line } acc)
        (eval_args ()) (callee_raises ctx n)
    in
    m
  | None -> union (eval ctx node rebinds f) (eval_args ())

(* [try]/[match-exception] handler semantics over a body's raise map;
   also hosts the swallowed-control-exn and unmapped-wire-error
   checks, which are properties of individual arms. *)
and handle ctx node rebinds ~body_map ~cases =
  let remaining = ref body_map in
  let out = ref SM.empty in
  List.iter
    (fun c ->
      let shape = shape_of_pat ctx.t node.env ~fn:node.fn c.pc_lhs in
      let caught =
        if shape.a_all then !remaining
        else SM.filter (fun k _ -> List.mem k shape.a_ctors) !remaining
      in
      let rebinds' =
        match shape.a_bound with
        | Some v -> (v, caught) :: rebinds
        | None -> rebinds
      in
      (match c.pc_guard with
      | Some g -> out := union !out (eval ctx node rebinds' g)
      | None -> ());
      let arm_map = eval ctx node rebinds' c.pc_rhs in
      let guarded = c.pc_guard <> None in
      if ctx.emit && (not guarded) && shape.a_all then begin
        let swallowed =
          List.filter
            (fun cx -> SM.mem cx caught && not (SM.mem cx arm_map))
            control_exns
        in
        match swallowed with
        | [] -> ()
        | exn :: _ ->
          finding ctx
            (Finding.v ~symbol:node.fn
               ~witness:[ witness_of ctx node exn (SM.find exn caught) ]
               ~rule:"swallowed-control-exn" ~file:node.file
               ~line:(Callgraph.line_of_loc c.pc_lhs.ppat_loc)
               ~slug:exn
               (Printf.sprintf
                  "catch-all arm absorbs the %s control exception without \
                   re-raising it; a killed process would survive its kill \
                   point — match it explicitly and re-raise"
                  exn))
      end;
      if ctx.emit && not guarded then check_unmapped ctx node c caught;
      if not guarded then
        remaining :=
          (if shape.a_all then SM.empty
           else
             SM.filter (fun k _ -> not (List.mem k shape.a_ctors)) !remaining);
      out := union !out arm_map)
    cases;
  union !remaining !out

(* A dispatcher's handler arm that routes through an error mapper:
   everything the arm can catch that the mapper only catch-alls is a
   wire error the protocol cannot name. *)
and check_unmapped ctx node c caught =
  match List.assoc_opt node.Callgraph.fn ctx.dispatch_sites with
  | None -> ()
  | Some (decl, _) -> (
    match mapper_in ctx node c.pc_rhs with
    | None -> ()
    | Some (mname, mapped) ->
      SM.iter
        (fun exn o ->
          (* Only exceptions this codebase declares: a stdlib
             Not_found falling into the mapper's catch-all is a
             programming error, not missing wire vocabulary. *)
          if
            exn <> any_exn
            && (not (List.mem exn control_exns))
            && SS.mem exn ctx.t.exn_decls
            && not (SS.mem exn mapped)
          then
            finding ctx
              (Finding.v ~symbol:node.fn
                 ~witness:
                   [
                     witness_of ctx node exn o;
                     Printf.sprintf
                       "error mapper %s has no arm for it (declared wire \
                        errors at %s:%d)"
                       mname decl.Protocol.d_file decl.Protocol.d_line;
                   ]
                 ~rule:"unmapped-wire-error" ~file:node.file
                 ~line:(Callgraph.line_of_loc c.pc_lhs.ppat_loc)
                 ~slug:exn
                 (Printf.sprintf
                    "exception %s can reach dispatcher %s but %s maps it \
                     only through the catch-all; add an explicit arm so the \
                     wire protocol names the failure"
                    exn node.fn mname)))
        caught)

and mapper_in ctx node e =
  let found = ref None in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> (
            let n =
              Names.resolve_lid node.Callgraph.env
                ~defined:(Callgraph.defined ctx.t.graph)
                txt
            in
            match Hashtbl.find_opt ctx.mappers n with
            | Some mapped when !found = None -> found := Some (n, mapped)
            | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  !found

(* ------------------------------------------------------------------ *)
(* Effect scan: leak-on-raise and ivar-unfilled-on-raise               *)
(* ------------------------------------------------------------------ *)

(* The may-domain walk of {!Flow}, tracking the held tokens, the
   enclosing handlers, the enclosing [Fun.protect] depth, and whether
   an escaping raise is already possible on the current path. *)

type est = {
  lm : bool;
  held : string list;
  raised : bool;
  raise_info : (string * string * int) option;
      (* exn, source callee ("" = direct raise), line *)
}

let fresh = { lm = false; held = []; raised = false; raise_info = None }

let merge a b =
  {
    lm = a.lm || b.lm;
    held = Flow.union a.held b.held;
    raised = a.raised || b.raised;
    raise_info = (if a.raise_info = None then b.raise_info else a.raise_info);
  }

let scan_effects ctx (node : Callgraph.node) =
  let fn = node.fn in
  let scoped =
    (* A function that intentionally returns holding (2PL) is judged
       by its caller's release discipline, not here. *)
    match Hashtbl.find_opt ctx.lock.Lockpass.summaries fn with
    | Some s -> not s.Flow.holds_on_return
    | None -> true
  in
  let st = ref fresh in
  let protect = ref 0 in
  let handlers = ref [] in
  let leak_reported = ref [] in
  let ivar_reported = ref false in
  let caught exn =
    List.exists (fun (all, cs) -> all || List.mem exn cs) !handlers
  in
  let at_raise_point ~callee names line =
    match List.filter (fun exn -> not (caught exn)) names with
    | [] -> ()
    | exn :: _ ->
      let s = !st in
      st :=
        {
          s with
          raised = true;
          raise_info =
            (if s.raise_info = None then Some (exn, callee, line)
             else s.raise_info);
        };
      if !protect = 0 && scoped && (s.lm || s.held <> []) then begin
        let tok =
          match s.held with tok :: _ -> tok | [] -> "Lock_manager grant"
        in
        if not (List.mem tok !leak_reported) then begin
          leak_reported := tok :: !leak_reported;
          let source =
            if callee = "" then Printf.sprintf "a raise at %s:%d" node.file line
            else
              Printf.sprintf "%s (%s)" callee
                (String.concat " -> " (fn :: chain ctx.t callee exn))
          in
          finding ctx
            (Finding.v ~symbol:fn
               ~witness:
                 [
                   Printf.sprintf "held here: %s"
                     (String.concat ", "
                        (if s.held = [] then [ "Lock_manager grant" ]
                         else s.held));
                   Printf.sprintf "escaping %s from %s" exn source;
                 ]
               ~rule:"leak-on-raise" ~file:node.file ~line ~slug:tok
               (Printf.sprintf
                  "token %s is held when %s may raise %s with no release on \
                   the raise path; wrap the critical section in Fun.protect \
                   or Sim.Semaphore.with_acquire"
                  tok
                  (if callee = "" then "this path" else callee)
                  exn))
        end
      end
  in
  let hold toks = st := { !st with held = Flow.union !st.held toks } in
  let drop_grants () =
    st := { !st with lm = false; held = List.filter Flow.is_sem_token !st.held }
  in
  let with_handlers cases body =
    let shapes =
      List.filter_map
        (fun c ->
          if c.pc_guard <> None then None
          else Some (shape_of_pat ctx.t node.env ~fn c.pc_lhs))
        cases
    in
    handlers :=
      ( List.exists (fun s -> s.a_all) shapes,
        List.concat_map (fun s -> s.a_ctors) shapes )
      :: !handlers;
    body ();
    handlers := List.tl !handlers
  in
  let rec w =
    {
      Flow.graph = ctx.t.graph;
      env = node.env;
      summaries = ctx.lock.Lockpass.summaries;
      join = Flow.May;
      get = (fun () -> !st);
      set = (fun s -> st := s);
      merge;
      expr = (fun e -> Flow.arms w e);
      arg = (fun e -> Flow.arms w e);
      call;
      lock;
      spawn;
      handlers = with_handlers;
      protect =
        (fun body finally ->
          incr protect;
          body ();
          decr protect;
          (* The finally thunk runs on every path: an earlier raise
             cannot skip an [Ivar.fill] that lives here (only a raise
             within the thunk itself still can). *)
          let s = !st in
          st := { s with raised = false; raise_info = None };
          finally ();
          st := { !st with raised = s.raised; raise_info = s.raise_info });
    }
  and spawn _ args =
    (* Each spawned closure is its own process: fresh state, and
       nothing it does flows back to the spawner's path. *)
    List.iter
      (fun (_, a) ->
        let s, p, h = (!st, !protect, !handlers) in
        st := fresh;
        protect := 0;
        handlers := [];
        Flow.arms w a;
        st := s;
        protect := p;
        handlers := h)
      args
  and call e n args =
    let line = Callgraph.line_of_loc e.pexp_loc in
    match n with
    | "raise" | "raise_notrace" ->
      let names =
        match Flow.nolabel_args args with
        | a :: _ -> (
          match (Flow.strip a).pexp_desc with
          | Pexp_construct ({ txt; _ }, _) ->
            [ resolve_exn ctx.t node.env ~fn txt ]
          | _ -> [ any_exn ])
        | [] -> [ any_exn ]
      in
      at_raise_point ~callee:"" names line
    | "Sim.Ivar.fill" ->
      List.iter (fun (_, a) -> Flow.arms w a) args;
      if !st.raised && not !ivar_reported then begin
        ivar_reported := true;
        let why =
          match !st.raise_info with
          | Some (exn, "", l) ->
            Printf.sprintf "an earlier raise of %s at %s:%d can skip it" exn
              node.file l
          | Some (exn, callee, l) ->
            Printf.sprintf
              "an earlier call to %s (%s:%d) can raise %s and skip it"
              callee node.file l exn
          | None -> "an earlier escaping raise can skip it"
        in
        finding ctx
          (Finding.v ~symbol:fn ~witness:[ why ]
             ~rule:"ivar-unfilled-on-raise" ~file:node.file ~line
             ~slug:"Sim.Ivar.fill"
             (Printf.sprintf
                "Ivar.fill is only reached when no earlier call raises — %s \
                 and strands every reader; fill from the handler or a \
                 Fun.protect finally"
                why))
      end
    | _ ->
      List.iter (fun (_, a) -> Flow.arms w a) args;
      at_raise_point ~callee:n (callee_raises ctx n) line
  and lock n line = function
    | Flow.Acquire { tok; _ } ->
      at_raise_point ~callee:n (callee_raises ctx n) line;
      st := { !st with lm = true };
      hold (Option.to_list tok)
    | Sem_acquire tok ->
      at_raise_point ~callee:n (callee_raises ctx n) line;
      hold (Option.to_list tok)
    | Sem_release tok ->
      st := { !st with held = List.filter (fun t -> Some t <> tok) !st.held }
    | Sem_scoped (_, body) ->
      (* Structurally protected: the token cannot leak, and like
         Fun.protect the enclosing tokens are assumed released by the
         combinator discipline. *)
      at_raise_point ~callee:n (callee_raises ctx n) line;
      incr protect;
      body ();
      decr protect
    | Returns_holding toks ->
      st := { !st with lm = true };
      hold toks
    | Release_all | Returns_released -> drop_grants ()
  in
  Option.iter (Flow.arms w) node.body

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let dispatch_escape_findings ctx =
  List.iter
    (fun (_, (decl, site)) ->
      match Hashtbl.find_opt ctx.t.raise_maps site.Protocol.s_fn with
      | None -> ()
      | Some m ->
        SM.iter
          (fun exn o ->
            if exn <> any_exn && not (List.mem exn control_exns) then
              match Callgraph.node ctx.t.graph site.Protocol.s_fn with
              | None -> ()
              | Some node ->
                finding ctx
                  (Finding.v ~symbol:site.Protocol.s_fn
                     ~witness:
                       [
                         witness_of ctx node exn o;
                         Printf.sprintf "%s.%s dispatched at %s:%d"
                           decl.Protocol.d_module decl.Protocol.d_type
                           site.Protocol.s_file site.Protocol.s_line;
                       ]
                     ~rule:"escaping-raise-into-dispatch"
                     ~file:site.Protocol.s_file ~line:site.Protocol.s_line
                     ~slug:exn
                     (Printf.sprintf
                        "exception %s can escape request dispatcher %s, \
                         killing the serving process instead of answering \
                         Err; catch it and encode a wire error"
                        exn site.Protocol.s_fn)))
          !m)
    ctx.dispatch_sites

let run graph (lock : Lockpass.result) =
  let t =
    {
      graph;
      exn_decls = collect_exn_decls graph.Callgraph.files;
      raise_maps = Hashtbl.create 256;
    }
  in
  let ctx =
    {
      t;
      lock;
      dispatch_sites =
        List.map
          (fun (d, s) -> (s.Protocol.s_fn, (d, s)))
          (Protocol.dispatchers graph);
      mappers = Hashtbl.create 8;
      emit = false;
      findings = [];
    }
  in
  Hashtbl.iter (fun k v -> Hashtbl.replace ctx.mappers k v)
    (collect_mappers t);
  Flow.fixpoint
    (fun (n : Callgraph.node) ->
      match n.body with
      | None -> false
      | Some b ->
        let cur = Flow.find_or_add t.raise_maps n.fn (fun () -> ref SM.empty) in
        let merged = union !cur (eval ctx n [] b) in
        SM.cardinal merged <> SM.cardinal !cur
        && begin
             cur := merged;
             true
           end)
    (Callgraph.nodes_in_order graph);
  ctx.emit <- true;
  List.iter
    (fun (n : Callgraph.node) ->
      (match n.body with
      | None -> ()
      | Some b -> ignore (eval ctx n [] b));
      scan_effects ctx n)
    (Callgraph.nodes_in_order graph);
  dispatch_escape_findings ctx;
  (t, Finding.sort ctx.findings)

let raises t fn =
  match Hashtbl.find_opt t.raise_maps fn with
  | None -> []
  | Some m -> List.map fst (SM.bindings !m)

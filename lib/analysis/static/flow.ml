open Parsetree

(* What the three flow-sensitive passes share: the evaluation-order
   walk of a function body, the reading of a call as a lock event, and
   the round-robin fixpoint over the call graph. Lockpass, Exnflow and
   Racepass each keep only their abstract state and their rules. *)

type token = string

let rec strip e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_open (_, e) -> strip e
  | _ -> e

let nolabel_args args =
  List.filter_map
    (fun (l, e) -> match l with Asttypes.Nolabel -> Some e | _ -> None)
    args

(* ------------------------------------------------------------------ *)
(* Token rendering                                                     *)
(* ------------------------------------------------------------------ *)

let item_ctors = [ "File_item"; "Page_item"; "Record_item" ]

let rec render_path e =
  match (strip e).pexp_desc with
  | Pexp_ident { txt; _ } -> Some (String.concat "." (Names.flatten txt))
  | Pexp_field (b, { txt; _ }) ->
    Option.map (fun p -> p ^ "." ^ Names.last txt) (render_path b)
  | _ -> None

let render_scalar e =
  match (strip e).pexp_desc with
  | Pexp_constant (Pconst_integer (s, _)) -> Some s
  | _ -> render_path e

let render_item e =
  match (strip e).pexp_desc with
  | Pexp_construct ({ txt; _ }, arg) when List.mem (Names.last txt) item_ctors
    -> (
    let c = Names.last txt in
    match arg with
    | None -> Some c
    | Some a -> (
      match (strip a).pexp_desc with
      | Pexp_tuple parts ->
        let rs = List.map render_scalar parts in
        if List.for_all Option.is_some rs then
          Some
            (c ^ "("
            ^ String.concat "," (List.map (Option.value ~default:"?") rs)
            ^ ")")
        else None
      | _ -> Option.map (fun s -> c ^ " " ^ s) (render_scalar a)))
  | _ -> None

let render_sem e = Option.map (fun p -> "sem:" ^ p) (render_path e)

let is_sem_token tok = String.length tok >= 4 && String.sub tok 0 4 = "sem:"

(* Ordered union of held-token lists: [a]'s order, then [b]'s new
   tokens. *)
let union a b =
  List.fold_left (fun acc t -> if List.mem t acc then acc else acc @ [ t ]) a b

let find_or_add tbl k make =
  match Hashtbl.find_opt tbl k with
  | Some v -> v
  | None ->
    let v = make () in
    Hashtbl.replace tbl k v;
    v

(* ------------------------------------------------------------------ *)
(* Lock events                                                         *)
(* ------------------------------------------------------------------ *)

type summary = {
  mutable acquires : (token * string list) list;
  mutable holds_on_return : bool;
  mutable releases : bool;
}

type event =
  | Acquire of { tok : token option; item : expression option; must : bool }
  | Release_all
  | Sem_acquire of token option
  | Sem_release of token option
  | Sem_scoped of token option * (unit -> unit)
  | Returns_holding of token list
  | Returns_released

(* ------------------------------------------------------------------ *)
(* The walker                                                          *)
(* ------------------------------------------------------------------ *)

type join = May | Must

type args = (Asttypes.arg_label * expression) list

type 's walker = {
  graph : Callgraph.t;
  env : Names.env;
  summaries : (string, summary) Hashtbl.t;
  join : join;
  get : unit -> 's;
  set : 's -> unit;
  merge : 's -> 's -> 's;
  expr : expression -> unit;
  arg : expression -> unit;
  call : expression -> string -> args -> unit;
  lock : string -> int -> event -> unit;
  spawn : expression -> args -> unit;
  handlers : case list -> (unit -> unit) -> unit;
  protect : (unit -> unit) -> (unit -> unit) -> unit;
}

let is_exception_case c =
  match c.pc_lhs.ppat_desc with Ppat_exception _ -> true | _ -> false

let strip_exception_case c =
  match c.pc_lhs.ppat_desc with
  | Ppat_exception p -> { c with pc_lhs = p }
  | _ -> c

let case_exprs cases =
  List.concat_map (fun c -> Option.to_list c.pc_guard @ [ c.pc_rhs ]) cases

let branch w ~with_pre exprs =
  if exprs <> [] then begin
    let pre = w.get () in
    let posts =
      List.map
        (fun e ->
          w.set pre;
          w.expr e;
          w.get ())
        exprs
    in
    match if with_pre then pre :: posts else posts with
    | p :: ps -> w.set (List.fold_left w.merge p ps)
    | [] -> ()
  end

(* A closure body: the may-domain inlines it where it is built, the
   must-domain lets nothing it does survive (it runs later, if ever). *)
let closure w k =
  match w.join with
  | May -> k ()
  | Must ->
    let pre = w.get () in
    k ();
    w.set pre

let primitive w name args =
  let first render =
    match nolabel_args args with a :: _ -> render a | [] -> None
  in
  match name with
  | "Lock_manager.acquire" | "Lock_manager.try_acquire" ->
    let item =
      match nolabel_args args with _ :: i :: _ -> Some i | _ -> None
    in
    let must = name = "Lock_manager.acquire" in
    Some (Acquire { tok = Option.bind item render_item; item; must })
  | "Lock_manager.release_all" -> Some Release_all
  | "Sim.Semaphore.acquire" -> Some (Sem_acquire (first render_sem))
  | "Sim.Semaphore.release" -> Some (Sem_release (first render_sem))
  | "Sim.Semaphore.with_acquire" -> (
    match nolabel_args args with
    | sem :: rest ->
      Some (Sem_scoped (render_sem sem, fun () -> List.iter w.expr rest))
    | [] -> None)
  | _ -> None

let returns w name =
  match Hashtbl.find_opt w.summaries name with
  | Some s when Callgraph.defined w.graph name ->
    if s.holds_on_return then Some (Returns_holding (List.map fst s.acquires))
    else if s.releases then Some Returns_released
    else None
  | _ -> None

let rec arms w e =
  let walk = w.expr in
  match e.pexp_desc with
  | Pexp_sequence (a, b) ->
    walk a;
    walk b
  | Pexp_ifthenelse (c, th, el) ->
    walk c;
    branch w ~with_pre:(el = None) (th :: Option.to_list el)
  | Pexp_match (scrut, cases) ->
    (match List.filter is_exception_case cases with
    | [] -> walk scrut
    | exn_cases ->
      w.handlers (List.map strip_exception_case exn_cases) (fun () ->
          walk scrut));
    branch w ~with_pre:false (case_exprs cases)
  | Pexp_try (body, cases) ->
    w.handlers cases (fun () -> walk body);
    branch w ~with_pre:true (case_exprs cases)
  | Pexp_function cases ->
    closure w (fun () -> branch w ~with_pre:true (case_exprs cases))
  | Pexp_fun (_, default, _, body) ->
    Option.iter walk default;
    closure w (fun () -> walk body)
  | Pexp_while (c, body) ->
    walk c;
    branch w ~with_pre:true [ body ]
  | Pexp_for (_, lo, hi, _, body) ->
    walk lo;
    walk hi;
    branch w ~with_pre:true [ body ]
  | Pexp_record (fields, base) ->
    (* Record fields do not run at construction time; the typical case
       is a record of RPC stub closures ([Service_conn]) that run much
       later on someone else's path. Walk each field under the
       construction-time state and let nothing leak between fields or
       out of the record. *)
    let pre = w.get () in
    Option.iter walk base;
    List.iter
      (fun (_, fe) ->
        w.set pre;
        walk fe)
      fields;
    w.set pre
  | Pexp_apply (f, args) -> apply w e f args
  | _ ->
    let it =
      { Ast_iterator.default_iterator with expr = (fun _ e' -> walk e') }
    in
    Ast_iterator.default_iterator.expr it e

and apply w e f args =
  let line = Callgraph.line_of_loc e.pexp_loc in
  match Callgraph.callee_name w.graph w.env f with
  | Some n when List.mem n Callgraph.spawn_like -> w.spawn e args
  | Some "Fun.protect" ->
    (* The body runs first, the finally closure last. *)
    w.protect
      (fun () -> List.iter w.expr (nolabel_args args))
      (fun () ->
        List.iter
          (function
            | (Asttypes.Labelled "finally" | Optional "finally"), a -> w.expr a
            | _ -> ())
          args)
  | Some n -> (
    match primitive w n args with
    | Some (Sem_scoped _ as ev) -> w.lock n line ev
    | Some ev ->
      List.iter (fun (_, a) -> w.expr a) args;
      w.lock n line ev
    | None ->
      w.call e n args;
      Option.iter (w.lock n line) (returns w n))
  | None ->
    w.expr f;
    List.iter (fun (_, a) -> w.arg a) args

(* ------------------------------------------------------------------ *)
(* Round-robin fixpoint                                               *)
(* ------------------------------------------------------------------ *)

let max_rounds = 64

let fixpoint step items =
  let rec round k =
    if
      k < max_rounds
      && List.fold_left (fun changed x -> step x || changed) false items
    then round (k + 1)
  in
  round 0

open Parsetree

(* Tokens come from {!Flow}: a rendered [Lock_manager] item or a
   semaphore path. Items whose arguments cannot be rendered are
   dynamic: they still set the held flag for the may-block rule but
   take no part in the order graph (a dynamic item unifies with
   nothing). *)
type token = Flow.token

type edge = {
  e_from : token;
  e_to : token;
  e_file : string;
  e_line : int;
  e_witness : string;
}

type result = {
  findings : Finding.t list;
  edges : edge list;
  summaries : (string, Flow.summary) Hashtbl.t;
}

let cell_update = "Sim.Cell.update"

(* ------------------------------------------------------------------ *)
(* Per-function scan                                                   *)
(* ------------------------------------------------------------------ *)

type ctx = {
  graph : Callgraph.t;
  mb : Mayblock.t;
  summaries : (string, Flow.summary) Hashtbl.t;
  emit : bool;
  mutable findings : Finding.t list;
  mutable edges : edge list;
}

(* Scan one function body; true when its summary grew. *)
let scan_node ctx (node : Callgraph.node) =
  let fn = node.fn in
  let s =
    Flow.find_or_add ctx.summaries fn (fun () ->
        { Flow.acquires = []; holds_on_return = false; releases = false })
  in
  let changed = ref false in
  let held = ref false and toks = ref [] in
  let cell_depth = ref 0 in
  let add_acquire tok chain =
    if not (List.mem_assoc tok s.acquires) then begin
      s.acquires <- (tok, chain) :: s.acquires;
      changed := true
    end
  in
  let add_edge u v line chain =
    if u <> v && ctx.emit then
      ctx.edges <-
        {
          e_from = u;
          e_to = v;
          e_file = node.file;
          e_line = line;
          e_witness =
            Printf.sprintf "%s -> %s via %s (%s:%d)" u v
              (String.concat " -> " chain)
              node.file line;
        }
        :: ctx.edges
  in
  let finding f = if ctx.emit then ctx.findings <- f :: ctx.findings in
  let acquire tok line =
    add_acquire tok [ fn ];
    List.iter (fun u -> add_edge u tok line [ fn ]) !toks;
    if not (List.mem tok !toks) then toks := !toks @ [ tok ]
  in
  let drop tok = toks := List.filter (fun t -> t <> tok) !toks in
  let drop_grants () =
    held := false;
    toks := List.filter Flow.is_sem_token !toks
  in
  let blocking_paths callee reasons =
    List.filteri
      (fun i _ -> i < 2)
      (List.map
         (fun (seed, cls) ->
           Printf.sprintf "blocking path (%s): %s"
             (Mayblock.cls_to_string cls)
             (String.concat " -> " (fn :: Mayblock.chain ctx.mb callee seed)))
         reasons)
  in
  let check_blocking callee line =
    let all = Mayblock.reasons ctx.mb callee in
    if !cell_depth > 0 && all <> [] then
      finding
        (Finding.v ~symbol:fn ~witness:(blocking_paths callee all)
           ~rule:"may-block-in-cell-update" ~file:node.file ~line ~slug:callee
           (Printf.sprintf
              "call to %s may block inside a Sim.Cell.update critical \
               section; the read-modify-write must stay atomic"
              callee));
    let hazardous =
      if !held then
        Mayblock.may_block ctx.mb callee
          ~classes:[ Mayblock.Time; Mayblock.Remote ]
      else []
    in
    if hazardous <> [] then
      finding
        (Finding.v ~symbol:fn ~witness:(blocking_paths callee hazardous)
           ~rule:"may-block-under-lock" ~file:node.file ~line ~slug:callee
           (Printf.sprintf
              "call to %s may block while a Lock_manager grant is held \
               (lock-held-across-%s); release first, or suppress with a \
               static-ok justification"
              callee
              (if List.exists (fun (_, c) -> c = Mayblock.Remote) hazardous
               then "RPC"
               else "wait")))
  in
  let rec w =
    {
      Flow.graph = ctx.graph;
      env = node.env;
      summaries = ctx.summaries;
      join = Flow.May;
      get = (fun () -> (!held, !toks));
      set =
        (fun (h, t) ->
          held := h;
          toks := t);
      merge = (fun (h1, t1) (h2, t2) -> (h1 || h2, Flow.union t1 t2));
      expr = (fun e -> Flow.arms w e);
      arg = (fun e -> Flow.arms w e);
      call;
      lock;
      (* a spawned closure runs in another process, under no lock *)
      spawn = (fun _ _ -> ());
      handlers = (fun _ body -> body ());
      protect =
        (fun body finally ->
          body ();
          finally ());
    }
  and call e n args =
    let line = Callgraph.line_of_loc e.pexp_loc in
    let walk_args () = List.iter (fun (_, a) -> Flow.arms w a) args in
    if n = cell_update then begin
      incr cell_depth;
      walk_args ();
      decr cell_depth
    end
    else begin
      walk_args ();
      check_blocking n line;
      match Hashtbl.find_opt ctx.summaries n with
      | Some gs when Callgraph.defined ctx.graph n ->
        List.iter
          (fun u ->
            List.iter
              (fun (v, chain) -> add_edge u v line (fn :: chain))
              gs.acquires)
          !toks;
        List.iter (fun (v, chain) -> add_acquire v (fn :: chain)) gs.acquires
      | _ -> ()
    end
  and lock _ line = function
    | Flow.Acquire { tok; _ } ->
      held := true;
      Option.iter (fun t -> acquire t line) tok
    | Release_all ->
      drop_grants ();
      if not s.releases then begin
        s.releases <- true;
        changed := true
      end
    | Sem_acquire tok -> Option.iter (fun t -> acquire t line) tok
    | Sem_release tok -> Option.iter drop tok
    | Sem_scoped (tok, body) ->
      (* the release is structural: the token cannot escape the call *)
      Option.iter (fun t -> acquire t line) tok;
      body ();
      Option.iter drop tok
    | Returns_holding vs ->
      held := true;
      toks := Flow.union !toks vs
    | Returns_released -> drop_grants ()
  in
  Option.iter (Flow.arms w) node.body;
  let holds = !held || List.exists Flow.is_sem_token !toks in
  if holds && not s.holds_on_return then begin
    s.holds_on_return <- true;
    changed := true
  end;
  !changed

(* ------------------------------------------------------------------ *)
(* Cycle detection over the order graph                                *)
(* ------------------------------------------------------------------ *)

let cycle_findings edges =
  let adj = Hashtbl.create 32 in
  let nodes = ref [] in
  let add_node n = if not (List.mem n !nodes) then nodes := n :: !nodes in
  List.iter
    (fun e ->
      add_node e.e_from;
      add_node e.e_to;
      let cur = try Hashtbl.find adj e.e_from with Not_found -> [] in
      if not (List.exists (fun (v, _) -> v = e.e_to) cur) then
        Hashtbl.replace adj e.e_from ((e.e_to, e) :: cur))
    edges;
  let nodes = List.sort compare !nodes in
  let succs u = try Hashtbl.find adj u with Not_found -> [] in
  (* Strongly connected components of two or more tokens: the nodes
     reachable from each node and reaching back to it. *)
  let reach u =
    let seen = Hashtbl.create 16 in
    let rec go v =
      List.iter
        (fun (w, _) ->
          if not (Hashtbl.mem seen w) then begin
            Hashtbl.replace seen w ();
            go w
          end)
        (succs v)
    in
    go u;
    seen
  in
  let reaches = List.map (fun u -> (u, reach u)) nodes in
  let mutual u v =
    Hashtbl.mem (List.assoc u reaches) v && Hashtbl.mem (List.assoc v reaches) u
  in
  let sccs =
    List.sort_uniq compare
      (List.filter_map
         (fun u ->
           match List.filter (fun v -> v = u || mutual u v) nodes with
           | _ :: _ :: _ as scc -> Some scc
           | _ -> None)
         nodes)
  in
  (* For each SCC, extract one witnessing simple cycle by DFS from its
     smallest node back to itself, restricted to SCC members. *)
  let find_cycle scc =
    let start = List.hd scc in
    let rec dfs path visited u =
      List.fold_left
        (fun found (v, e) ->
          match found with
          | Some _ -> found
          | None ->
            if not (List.mem v scc) then None
            else if v = start then Some (List.rev (e :: path))
            else if List.mem v visited then None
            else dfs (e :: path) (v :: visited) v)
        None (succs u)
    in
    dfs [] [ start ] start
  in
  List.filter_map
    (fun scc ->
      match find_cycle scc with
      | None -> None
      | Some cycle_edges ->
        let first = List.hd cycle_edges in
        let ring =
          String.concat " -> "
            (List.map (fun e -> e.e_from) cycle_edges @ [ first.e_from ])
        in
        Some
          (Finding.v
             ~witness:(List.map (fun e -> e.e_witness) cycle_edges)
             ~rule:"lock-order-cycle" ~file:first.e_file ~line:first.e_line
             ~slug:(String.concat "|" scc)
             (Printf.sprintf
                "potential ABBA deadlock: locks are acquired in a cycle %s"
                ring)))
    sccs

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let run graph mb =
  let ctx =
    {
      graph;
      mb;
      summaries = Hashtbl.create 256;
      emit = false;
      findings = [];
      edges = [];
    }
  in
  let nodes = Callgraph.nodes_in_order graph in
  Flow.fixpoint (scan_node ctx) nodes;
  let ctx = { ctx with emit = true } in
  List.iter (fun n -> ignore (scan_node ctx n)) nodes;
  let edges = List.rev ctx.edges in
  {
    findings = Finding.sort (ctx.findings @ cycle_findings edges);
    edges;
    summaries = ctx.summaries;
  }

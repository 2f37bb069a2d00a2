type cls = Lock | Time | Remote

let cls_to_string = function
  | Lock -> "lock"
  | Time -> "time"
  | Remote -> "remote"

(* Blocking primitives of the simulator and the RPC layer. Everything
   else that blocks does so by calling one of these, which the
   fixpoint discovers by propagation — the disk's [Sim.sleep], the
   RPC stub's [Net.Rpc.call], and so on. *)
let seeds =
  [
    ("Sim.sleep", Time);
    ("Sim.suspend", Time);
    ("Sim.suspend_full", Time);
    ("Sim.Mailbox.recv", Time);
    ("Sim.Mailbox.recv_timeout", Time);
    ("Sim.Condition.wait", Time);
    ("Sim.Condition.wait_timeout", Time);
    ("Sim.Ivar.read", Time);
    (* Taking another lock while holding one is ordinary 2PL, judged by
       the lock-order pass, not the may-block pass. Like every seed,
       these are opaque in the fixpoint: a caller inherits only their
       [Lock] class, never the [Time] reasons of their implementations
       (the lock manager's simulated search cost would otherwise paint
       every multi-lock transaction as time-blocking). *)
    ("Sim.Semaphore.acquire", Lock);
    ("Sim.Semaphore.with_acquire", Lock);
    ("Lock_manager.acquire", Lock);
    ("Lock_manager.try_acquire", Lock);
    ("Net.recv", Remote);
    ("Net.recv_timeout", Remote);
    ("Net.Rpc.call", Remote);
  ]

let seed_class name =
  if Callgraph.is_conn_call name then Some Remote
  else List.assoc_opt name seeds

type info = {
  (* seed -> (class, next hop on a witness path: None = called
     directly by this function) *)
  mutable reasons : (string * (cls * string option)) list;
}

type t = {
  graph : Callgraph.t;
  infos : (string, info) Hashtbl.t;
}

let add_reason i seed cls via =
  if not (List.mem_assoc seed i.reasons) then begin
    i.reasons <- (seed, (cls, via)) :: i.reasons;
    true
  end
  else false

let compute graph =
  let t = { graph; infos = Hashtbl.create 256 } in
  Flow.fixpoint
    (fun (n : Callgraph.node) ->
      let i = Flow.find_or_add t.infos n.fn (fun () -> { reasons = [] }) in
      List.fold_left
        (fun changed (callee, _) ->
          (match seed_class callee with
          | Some cls -> add_reason i callee cls None
          | None -> (
            match Hashtbl.find_opt t.infos callee with
            | None -> false
            | Some ci ->
              List.fold_left
                (fun added (seed, (cls, _)) ->
                  add_reason i seed cls (Some callee) || added)
                false ci.reasons))
          || changed)
        false n.calls)
    (Callgraph.nodes_in_order graph);
  t

let reasons t fn =
  (* Direct seed names double as pseudo-functions: asking for the
     reasons of "Sim.sleep" itself yields its own class. *)
  match seed_class fn with
  | Some cls -> [ (fn, cls) ]
  | None -> (
    match Hashtbl.find_opt t.infos fn with
    | None -> []
    | Some i -> List.map (fun (s, (c, _)) -> (s, c)) i.reasons)

let may_block t fn ~classes =
  List.filter (fun (_, c) -> List.mem c classes) (reasons t fn)

(* Witness path fn -> ... -> seed, following the [via] links recorded
   during propagation. Bounded in case of (impossible) via cycles. *)
let chain t fn seed =
  let rec go acc fn depth =
    if depth > 64 then List.rev acc
    else if fn = seed || seed_class fn <> None then List.rev (fn :: acc)
    else
      match Hashtbl.find_opt t.infos fn with
      | None -> List.rev (fn :: acc)
      | Some i -> (
        match List.assoc_opt seed i.reasons with
        | Some (_, Some via) -> go (fn :: acc) via (depth + 1)
        | Some (_, None) -> List.rev (seed :: fn :: acc)
        | None -> List.rev (fn :: acc))
  in
  go [] fn 0

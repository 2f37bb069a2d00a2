(* The race pass sees through an LRU table as it does through a
   Hashtbl: two workers each check for a key in a table held in a
   record field, yield to the scheduler, then insert it. The check and
   the insert are torn apart by the sleep and no lock is held. *)
(* expect: static-race *)

type cache = { entries : (int, string) Lru.t }

let fill c k =
  if not (Lru.mem c.entries k) then begin
    Sim.sleep 1.0;
    Lru.replace c.entries k "loaded"
  end

let main sim =
  let c = { entries = Lru.create 8 } in
  ignore (Sim.spawn sim (fun () -> fill c 1));
  ignore (Sim.spawn sim (fun () -> fill c 1))

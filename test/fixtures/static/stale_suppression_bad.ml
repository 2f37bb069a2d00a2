(* A suppression left behind after the lock it excused was dropped:
   nothing blocks under a lock here, so the marker suppresses nothing
   and is reported at its own line. *)
(* expect: stale-suppression *)

let fetch conn fid =
  (* static-ok: may-block-under-lock 2PL grant held across the read *)
  conn.Service_conn.pread fid 0 4096

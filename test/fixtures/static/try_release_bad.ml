(* Negative control: the grant taken inside a [try] is released only
   in the [Not_found] handler. When the lookup succeeds the body falls
   through still holding it, so the RPC after the [try] runs under the
   lock. The function then returns holding the grant on the normal
   path (2PL), which leaves its release to the caller. *)
(* expect: may-block-under-lock *)

let lookup_then_fetch lm txn tbl conn fid =
  let off =
    try
      Lock_manager.acquire lm ~txn (File_item 42) Iread;
      Hashtbl.find tbl fid
    with Not_found ->
      Lock_manager.release_all lm ~txn;
      0
  in
  conn.Service_conn.pread fid off 4096

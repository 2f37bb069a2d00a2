(* Negative control: the grant is released only on one arm of an [if]
   with no [else], so the path that skips it still holds the lock at
   the RPC below. The branch merge must keep the not-taken path's
   state: the lock pass reports the RPC under the lock, and the
   exception-flow pass the grant leaked if the RPC raises. *)
(* expect: may-block-under-lock leak-on-raise *)

let read_unless_early lm txn conn fid early =
  Lock_manager.acquire lm ~txn (File_item 41) Iread;
  if early then Lock_manager.release_all lm ~txn;
  let data = conn.Service_conn.pread fid 0 4096 in
  Lock_manager.release_all lm ~txn;
  data

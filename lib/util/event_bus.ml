(* Multi-subscriber event bus.

   Any number of subscribers can listen to a stream of events, each
   holding an unsubscribe token, so attaching one observer (say, a
   deadlock detector) never silently evicts another (say, the
   sanitizer).

   Publishing with no subscribers must be as close to free as possible:
   the hot paths guard their instrumentation with a match on [subs]
   and skip event construction entirely when nobody is listening. *)

type token = int

type 'a t = {
  mutable subs : (token * ('a -> unit)) list;
  (* Newest-first; [publish] iterates oldest-first so subscribers see
     events in subscription order. *)
  mutable next : token;
}

let create () = { subs = []; next = 1 }

let subscribe t f =
  let tok = t.next in
  t.next <- tok + 1;
  t.subs <- (tok, f) :: t.subs;
  tok

let unsubscribe t tok = t.subs <- List.filter (fun (k, _) -> k <> tok) t.subs

let has_subscribers t = match t.subs with [] -> false | _ :: _ -> true
let subscriber_count t = List.length t.subs

(* Publish over a snapshot, re-checking membership per delivery:
   subscribers added during a publish first see the *next* event, and
   a subscriber unsubscribed mid-publish (by an earlier subscriber's
   callback) is skipped rather than called after its unsubscribe
   returned. Both choices keep delivery deterministic under observer
   self-modification. *)
let publish t ev =
  match t.subs with
  | [] -> ()
  | [ (_, f) ] -> f ev
  | subs ->
    List.iter
      (fun (tok, f) ->
        if List.exists (fun (k, _) -> k = tok) t.subs then f ev)
      (List.rev subs)

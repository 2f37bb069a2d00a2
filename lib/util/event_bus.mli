(** Multi-subscriber event bus with unsubscribe tokens.

    Any number of observers can subscribe to the same event stream, and
    each can detach independently without disturbing the others.
    Publishing with no subscribers is a cheap no-op, which lets
    instrumented hot paths stay zero-cost when nobody is listening
    (guard with [has_subscribers], or match [subs] directly, before
    building an event). *)

type token
(** Identifies one subscription; pass it back to {!unsubscribe}. *)

type 'a t = private {
  mutable subs : (token * ('a -> unit)) list;
  mutable next : token;
}
(** A bus carrying events of type ['a]. [subs] is readable so a hot
    emission site can test for [[]] without a call. *)

val create : unit -> 'a t

val subscribe : 'a t -> ('a -> unit) -> token
(** [subscribe t f] registers [f] to receive every subsequent event.
    Returns a token that removes exactly this subscription. *)

val unsubscribe : 'a t -> token -> unit
(** Remove a subscription.  Unknown or already-removed tokens are
    ignored. *)

val has_subscribers : 'a t -> bool
(** [true] iff at least one subscriber is attached.  Instrumentation
    sites use this as their fast-path guard. *)

val subscriber_count : 'a t -> int

val publish : 'a t -> 'a -> unit
(** Deliver an event to all subscribers in subscription order.  A no-op
    when no subscriber is attached.  Self-modification during a publish
    is well-defined: a subscriber added by a callback first sees the
    {e next} event, and a subscriber removed by an earlier callback in
    the same publish is skipped, not called. *)

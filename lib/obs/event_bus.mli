(** {!Rhodos_util.Event_bus}, re-exported for span consumers. *)
include module type of struct include Rhodos_util.Event_bus end

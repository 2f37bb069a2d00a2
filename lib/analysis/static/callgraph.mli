(** Whole-program symbol table and interprocedural call graph.

    A node is one value binding — top-level or inside a nested
    [module X = struct ... end] — named by its dotted module path
    ("Sim.Mailbox.recv", "Cluster.handle_request"). Top-level
    [let () = ...] init code gets a synthetic [_init_<line>] node.
    Edges are resolved call sites plus bare function references
    (a function handed to [List.iter] or [Fun.protect ~finally] runs
    on the caller's path); the closure arguments of [Sim.spawn] /
    [Sim.schedule] are excluded — they run in another process. *)

type node = {
  fn : string;  (** canonical dotted name, unique (suffixed on clash) *)
  file : string;
  line : int;
  body : Parsetree.expression option;
  env : Names.env;  (** the defining file's alias environment *)
  mutable calls : (string * int) list;  (** resolved callee, line *)
}

type t = {
  nodes : (string, node) Hashtbl.t;
  order : string list;
  files : Source.file list;
}

val build : Source.file list -> t
(** Unparseable files contribute no nodes (the driver reports them as
    [parse-failure]). *)

val node : t -> string -> node option

val defined : t -> string -> bool

val nodes_in_order : t -> node list

val callee_of_expr :
  Names.env -> defined:(string -> bool) -> Parsetree.expression -> string option
(** Classify a callee expression: an identifier path (resolved), or a
    qualified [Service_conn] record-field access (an RPC call,
    returned as ["Service_conn.<field>"]). [None] for anything
    else. *)

val callee_name : t -> Names.env -> Parsetree.expression -> string option
(** {!callee_of_expr} against this graph's definitions. *)

val conn_fields : string list

val is_conn_call : string -> bool
(** Whether a canonical callee is a [Service_conn.<field>] RPC. *)

val spawn_like : string list

val line_of_loc : Location.t -> int

val binding_name : Parsetree.pattern -> string option
(** The variable a [let] binds, through type constraints. *)

val walk_structure :
  (string -> Parsetree.structure_item -> unit) ->
  string ->
  Parsetree.structure ->
  unit
(** [walk_structure f prefix items] calls [f] on every item with its
    dotted module path, descending into nested and recursive module
    bodies right after the item that opens them. *)

open Parsetree

type node = {
  fn : string;
  file : string;
  line : int;
  body : expression option;
  env : Names.env;
  mutable calls : (string * int) list;
}

type t = {
  nodes : (string, node) Hashtbl.t;
  order : string list;  (* node names in definition order *)
  files : Source.file list;
}

let line_of_loc (loc : Location.t) = loc.loc_start.pos_lnum

(* ------------------------------------------------------------------ *)
(* Symbol collection                                                   *)
(* ------------------------------------------------------------------ *)

let rec binding_name pat =
  match pat.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (p, _) -> binding_name p
  | _ -> None

let collect_aliases items =
  List.rev
    (List.filter_map
       (fun item ->
         match item.pstr_desc with
         | Pstr_module
             {
               pmb_name = { txt = Some name; _ };
               pmb_expr = { pmod_desc = Pmod_ident { txt; _ }; _ };
               _;
             } ->
           Some (name, Names.flatten txt)
         | _ -> None)
       items)

(* Visit every structure item with its dotted module path, descending
   into nested [module X = struct ... end] (and [module rec]) bodies
   right after the item that opens them. *)
let rec walk_structure on_item prefix items =
  List.iter
    (fun item ->
      on_item prefix item;
      match item.pstr_desc with
      | Pstr_module { pmb_name = { txt = Some name; _ }; pmb_expr; _ } ->
        walk_module on_item (prefix ^ "." ^ name) pmb_expr
      | Pstr_recmodule mbs ->
        List.iter
          (fun mb ->
            match mb.pmb_name.txt with
            | Some name -> walk_module on_item (prefix ^ "." ^ name) mb.pmb_expr
            | None -> ())
          mbs
      | _ -> ())
    items

and walk_module on_item prefix m =
  match m.pmod_desc with
  | Pmod_structure sub -> walk_structure on_item prefix sub
  | Pmod_constraint (m, _) -> walk_module on_item prefix m
  | _ -> ()

(* Every value binding, at top level or inside a nested module,
   becomes a node named by its dotted module path. Top-level
   [let () = ...] initialisation code gets a synthetic [_init] node so
   calls made at module init are not lost. *)
let collect_defs ~file ~env ~prefix items =
  let acc = ref [] in
  let add fn line body =
    acc := { fn; file; line; body = Some body; env; calls = [] } :: !acc
  in
  let init prefix line = Printf.sprintf "%s._init_%d" prefix line in
  walk_structure
    (fun prefix item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            let line = line_of_loc vb.pvb_loc in
            match binding_name vb.pvb_pat with
            | Some n -> add (prefix ^ "." ^ n) line vb.pvb_expr
            | None -> add (init prefix line) line vb.pvb_expr)
          vbs
      | Pstr_eval (e, _) ->
        let line = line_of_loc item.pstr_loc in
        add (init prefix line) line e
      | _ -> ())
    prefix items;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Callee classification                                               *)
(* ------------------------------------------------------------------ *)

(* Fields of the Service_conn connection records: a call through one
   of them is a client->server RPC, the canonical remote-blocking
   primitive of the may-block pass. Detection requires the field
   access to be module-qualified ([t.conn.Service_conn.pread]), which
   is how a cross-library record field must be written anyway. *)
let conn_fields =
  [
    "resolve"; "bind"; "unbind"; "mkdir"; "create_file"; "open_file";
    "close_file"; "delete_file"; "pread"; "pread_stream"; "pwrite";
    "get_attributes"; "truncate"; "tbegin"; "tcreate"; "topen"; "tclose";
    "tdelete"; "tread"; "twrite"; "tget_attribute"; "tend"; "tabort";
  ]

let is_conn_call name =
  List.exists (fun f -> name = "Service_conn." ^ f) conn_fields

let callee_of_expr env ~defined e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (Names.resolve_lid env ~defined txt)
  | Pexp_field (_, { txt; _ }) -> (
    match Names.flatten txt with
    | [ _ ] -> None (* unqualified field: not provably a conn field *)
    | path ->
      let c = Names.canonical env path in
      if is_conn_call c then Some c else None)
  | _ -> None

(* Arguments of these run in a fresh process or a deferred callback,
   not on the caller's path: their blocking behaviour must not be
   attributed to the spawning function. *)
let spawn_like =
  [ "Sim.spawn"; "Sim.spawn_at"; "Sim.schedule"; "Sim.schedule_cancellable" ]

(* ------------------------------------------------------------------ *)
(* Call extraction                                                     *)
(* ------------------------------------------------------------------ *)

let collect_calls ~env ~defined body =
  let acc = ref [] in
  let add name line =
    if String.contains name '.' || defined name then acc := (name, line) :: !acc
  in
  let iter = ref Ast_iterator.default_iterator in
  let expr it (e : expression) =
    match e.pexp_desc with
    | Pexp_apply (f, args) -> (
      let callee = callee_of_expr env ~defined f in
      (match callee with
      | Some n -> add n (line_of_loc e.pexp_loc)
      | None -> it.Ast_iterator.expr it f);
      match callee with
      | Some n when List.mem n spawn_like ->
        (* Skip the argument subtrees: the closure runs elsewhere. *)
        ()
      | _ -> List.iter (fun (_, a) -> it.Ast_iterator.expr it a) args)
    | Pexp_ident { txt; _ } ->
      (* A bare reference (function passed as a value, e.g. to
         [List.iter] or [Fun.protect ~finally]) counts as a call: the
         typical higher-order wrappers run it on the caller's path. *)
      add (Names.resolve_lid env ~defined txt) (line_of_loc e.pexp_loc)
    | _ -> Ast_iterator.default_iterator.expr it e
  in
  iter := { Ast_iterator.default_iterator with expr };
  !iter.Ast_iterator.expr !iter body;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Graph construction                                                  *)
(* ------------------------------------------------------------------ *)

let build (files : Source.file list) =
  let known_roots = List.map (fun f -> f.Source.module_name) files in
  let all_nodes =
    List.concat_map
      (fun (f : Source.file) ->
        match f.ast with
        | None -> []
        | Some items ->
          let aliases = collect_aliases items in
          let env =
            Names.make_env ~current_module:f.module_name ~aliases ~known_roots
          in
          collect_defs ~file:f.path ~env ~prefix:f.module_name items)
      files
  in
  let nodes = Hashtbl.create 256 in
  let order =
    List.map
      (fun n ->
        let name =
          if Hashtbl.mem nodes n.fn then
            Printf.sprintf "%s#%d" n.fn n.line
          else n.fn
        in
        let n = { n with fn = name } in
        Hashtbl.replace nodes name n;
        name)
      all_nodes
  in
  let defined name = Hashtbl.mem nodes name in
  Hashtbl.iter
    (fun _ n ->
      match n.body with
      | Some body -> n.calls <- collect_calls ~env:n.env ~defined body
      | None -> ())
    nodes;
  { nodes; order; files }

let node t name = Hashtbl.find_opt t.nodes name
let defined t name = Hashtbl.mem t.nodes name
let nodes_in_order t = List.filter_map (node t) t.order

let callee_name t env e =
  callee_of_expr env ~defined:(fun n -> defined t n) e

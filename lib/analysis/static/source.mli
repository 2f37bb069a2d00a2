(** Source acquisition for the static passes: read, parse with the
    compiler's own frontend ([compiler-libs]), and extract
    [static-ok] suppression comments.

    A file that fails to parse keeps [ast = None] and its error; the
    driver reports it as a [parse-failure] finding, so a syntax error
    never hides a file from analysis. *)

type file = {
  path : string;
  module_name : string;  (** capitalised basename, the root module *)
  src : string;
  ast : Parsetree.structure option;  (** [None] when unparseable *)
  parse_error : (int * string) option;
      (** the syntax error's line and message when unparseable *)
  suppressions : (int * string) list;
      (** [(line, rule)] from [(* static-ok: <rule> <reason> *)] *)
}

val module_name_of_path : string -> string

val scan_suppressions : string -> (int * string) list

val suppressed : (int * string) list -> line:int -> rule:string -> bool
(** A suppression on line L covers findings on L and L+1. *)

val parse_string :
  filename:string -> string -> (Parsetree.structure, int * string) result

val of_string : path:string -> string -> file
(** Build a {!file} from in-memory source (tests use this). *)

val load : string -> file

val ml_files : string -> string list
(** Every [.ml] under a directory, sorted, skipping [_build] and
    dot-directories. *)

val load_dir : string -> file list

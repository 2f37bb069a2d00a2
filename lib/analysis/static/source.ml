type file = {
  path : string;
  module_name : string;
  src : string;
  ast : Parsetree.structure option;
  parse_error : (int * string) option;
  suppressions : (int * string) list;
}

let module_name_of_path path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

(* [(* static-ok: <rule> <reason> *)] — scanned on the raw source so a
   suppression works even when the file does not parse. The rule is
   the first word after the marker; everything after it is the
   documented justification (required by convention, not enforced). A
   suppression on line L covers findings on L and L+1, so the comment
   can sit on the offending line or on its own line just above. *)
let scan_suppressions src =
  let marker = "static-ok:" in
  let mlen = String.length marker in
  let out = ref [] in
  List.iteri
    (fun idx line ->
      let n = String.length line in
      let i = ref 0 in
      while !i + mlen <= n do
        if String.sub line !i mlen = marker then begin
          let j = ref (!i + mlen) in
          while !j < n && line.[!j] = ' ' do
            incr j
          done;
          let k = ref !j in
          while
            !k < n
            && (match line.[!k] with
               | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> true
               | _ -> false)
          do
            incr k
          done;
          if !k > !j then
            out := (idx + 1, String.sub line !j (!k - !j)) :: !out;
          i := !k
        end
        else incr i
      done)
    (String.split_on_char '\n' src);
  List.rev !out

let suppressed suppressions ~line ~rule =
  List.exists
    (fun (l, r) -> r = rule && (l = line || l = line - 1))
    suppressions

let parse_string ~filename src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf filename;
  match Parse.implementation lexbuf with
  | ast -> Ok ast
  | exception e -> (
    match Location.error_of_exn e with
    | Some (`Ok { Location.main = { loc; txt }; _ }) ->
      Error (loc.loc_start.pos_lnum, Format.asprintf "%t" txt)
    | Some `Already_displayed | None ->
      Error (lexbuf.lex_curr_p.pos_lnum, Printexc.to_string e))

let of_string ~path src =
  let ast, parse_error =
    match parse_string ~filename:path src with
    | Ok ast -> (Some ast, None)
    | Error e -> (None, Some e)
  in
  {
    path;
    module_name = module_name_of_path path;
    src;
    ast;
    parse_error;
    suppressions = scan_suppressions src;
  }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load path = of_string ~path (read_file path)

let rec ml_files dir =
  match Sys.readdir dir with
  | entries ->
    Array.sort compare entries;
    Array.fold_left
      (fun acc entry ->
        let path = Filename.concat dir entry in
        if Sys.is_directory path then
          if entry = "_build" || (String.length entry > 0 && entry.[0] = '.')
          then acc
          else acc @ ml_files path
        else if Filename.check_suffix entry ".ml" then acc @ [ path ]
        else acc)
      [] entries
  | exception Sys_error _ -> []

let load_dir dir = List.map load (ml_files dir)

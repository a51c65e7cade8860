(* The one argument spec every bench subcommand shares.

   Historically each flag was parsed by hand in [main] and stashed in
   globals, and --json silently applied only to [dataflow]: running
   `bench faults --json x.json` accepted the flag and then ignored it.
   This module owns the spec instead. Every subcommand declares its
   default JSON output path (or that it writes none), the parser
   resolves --json against the actual selection, and a --json that
   cannot take effect is a hard usage error instead of a silent no-op. *)

type opts = {
  quick : bool;  (* tiny quotas and short runs, for CI *)
  seed : int option;  (* replayable seed for the randomised harnesses *)
  jobs : int;  (* worker domains for the pooled harnesses *)
  json_override : string option;  (* --json PATH, validated in [parse] *)
}

let default_opts = { quick = false; seed = None; jobs = 1; json_override = None }

type spec = {
  name : string;
  json_default : string option;  (* None = this subcommand writes no JSON *)
  run : opts -> json:string option -> unit;
}

(* Where --quick reports go when --json is absent: a quick smoke must
   never replace the committed full-mode report of the same name. *)
let quick_dir = "ci-quick"

let usage ppf specs =
  Fmt.pf ppf "subcommands:@.";
  List.iter
    (fun s ->
      Fmt.pf ppf "  %-12s%a@." s.name
        Fmt.(option (fun ppf j -> Fmt.pf ppf "writes %s" j))
        s.json_default)
    specs;
  Fmt.pf ppf "with --quick and no --json, reports go under %s/@." quick_dir;
  Fmt.pf ppf
    "flags: [--quick] [--seed N] [--jobs N] [--json PATH (single \
     JSON-writing subcommand only)]@."

let die specs fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "%s@.%a" msg usage specs;
      exit 2)
    fmt

(* [parse ~specs argv] returns the shared options and the selected
   subcommands in command-line order (all of them when none is named).
   Unknown names and unusable --json flags fail fast, before any
   experiment runs. *)
let parse ~specs argv =
  let rec go opts names = function
    | [] -> (opts, List.rev names)
    | "--json" :: path :: rest ->
      go { opts with json_override = Some path } names rest
    | [ "--json" ] -> die specs "--json needs a path argument"
    | "--quick" :: rest -> go { opts with quick = true } names rest
    | "--seed" :: n :: rest -> (
      match int_of_string_opt n with
      | Some s -> go { opts with seed = Some s } names rest
      | None -> die specs "--seed needs an integer argument, got %S" n)
    | [ "--seed" ] -> die specs "--seed needs an integer argument"
    | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some j when j >= 1 -> go { opts with jobs = j } names rest
      | _ -> die specs "--jobs needs a positive integer argument, got %S" n)
    | [ "--jobs" ] -> die specs "--jobs needs a positive integer argument"
    | name :: rest -> go opts (name :: names) rest
  in
  let opts, names = go default_opts [] argv in
  let selected =
    match names with
    | [] -> specs
    | names ->
      List.map
        (fun name ->
          match List.find_opt (fun s -> s.name = name) specs with
          | Some s -> s
          | None -> die specs "unknown subcommand %S" name)
        names
  in
  (match opts.json_override with
  | None -> ()
  | Some path -> (
    match List.filter (fun s -> s.json_default <> None) selected with
    | [ _ ] -> ()
    | [] ->
      die specs "--json %s: %s no JSON report; the flag would be ignored"
        path
        (match selected with
        | [ s ] -> Fmt.str "subcommand %S writes" s.name
        | _ -> "the selected subcommands write")
    | many ->
      die specs
        "--json %s is ambiguous: subcommands %s all write JSON; select \
         exactly one"
        path
        (String.concat ", " (List.map (fun s -> s.name) many))));
  (opts, selected)

(* The JSON path a subcommand should write to under [opts]: --json when
   [parse] proved the override unambiguous, else its default, moved
   under [quick_dir] for a quick run. *)
let json_path opts spec =
  match (spec.json_default, opts.json_override) with
  | None, _ -> None
  | Some _, Some path -> Some path
  | Some d, None when opts.quick -> Some (Filename.concat quick_dir d)
  | Some d, None -> Some d

(* Creates the directory [path] is to be written in, one level deep, so
   the default [quick_dir] need not exist beforehand. *)
let ensure_parent path =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

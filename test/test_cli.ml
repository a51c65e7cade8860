(* The bench argument spec: where each subcommand's JSON report goes.
   A quick run without --json must land under ci-quick/, never on the
   committed full-mode BENCH_*.json of the same name. *)

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

let spec json_default = { Cli.name = "x"; json_default; run = (fun _ ~json:_ -> ()) }
let path = Alcotest.(option string)

let json_path_tests =
  [
    test "a full run writes the committed report" (fun () ->
        check path "default" (Some "BENCH_x.json")
          (Cli.json_path Cli.default_opts (spec (Some "BENCH_x.json"))));
    test "a quick run without --json writes under ci-quick/" (fun () ->
        check path "quick default" (Some "ci-quick/BENCH_x.json")
          (Cli.json_path
             { Cli.default_opts with quick = true }
             (spec (Some "BENCH_x.json"))));
    test "--json wins in either mode" (fun () ->
        List.iter
          (fun quick ->
            check path
              (Fmt.str "quick=%b" quick)
              (Some "out.json")
              (Cli.json_path
                 { Cli.default_opts with quick; json_override = Some "out.json" }
                 (spec (Some "BENCH_x.json"))))
          [ false; true ]);
    test "a subcommand without a report has no path" (fun () ->
        check path "none" None
          (Cli.json_path { Cli.default_opts with quick = true } (spec None)));
  ]

let suite = [ ("bench.cli", json_path_tests) ]

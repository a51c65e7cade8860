(* The memoised Intra step tree against the unmemoised oracle.

   Every (PR, SR) target a search can ask for is reached from one shared
   root, as {!Sra.allocate} walks its sweep, and must land on the
   context, cost and point the oracle computes from the bare context.
   A state asked for the same step twice must hand back the physically
   equal child: the step ran once. *)

open Npra_cfg
open Npra_regalloc
open Npra_workloads

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

let prop ?(count = 20) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

(* drr is left out of the property: its whole grid takes several
   seconds through the oracle. Its deep tree gets the fixed prefix test
   below. *)
let kernel_ids =
  List.filter (fun id -> id <> "drr") (Registry.ids ())

type source = Kernel of string | Synthetic of { seed : int; size : int; nvars : int }

let pp_source ppf = function
  | Kernel id -> Fmt.string ppf id
  | Synthetic { seed; size; nvars } ->
    Fmt.pf ppf "synthetic seed=%d size=%d nvars=%d" seed size nvars

let program = function
  | Kernel id ->
    Webs.rename (Registry.instantiate (Registry.find_exn id) ~slot:0).Workload.prog
  | Synthetic { seed; size; nvars } ->
    Webs.rename (Synthetic.large ~seed ~nvars ~size ())

let gen_source =
  QCheck.Gen.(
    oneof
      [
        map (fun id -> Kernel id) (oneofl kernel_ids);
        map3
          (fun seed size nvars -> Synthetic { seed; size; nvars })
          (int_range 1 1000) (int_range 20 80) (int_range 6 14);
      ])

let arb_source = QCheck.make ~print:(Fmt.to_to_string pp_source) gen_source

(* Every (PR, SR) point a search can ask a thread for: each target of
   the SRA sweep at any register file and thread count ([sr <= MaxSR]),
   plus the demoting points beyond it that only the balancer reaches. *)
let targets (b : Estimate.bounds) =
  List.concat_map
    (fun pr ->
      let lo = max 0 (b.min_r - pr) in
      let hi = b.max_r - b.max_pr + (b.max_pr - pr) in
      List.init (max 0 (hi - lo + 1)) (fun i -> (pr, lo + i)))
    (List.init (b.max_pr - b.min_pr + 1) (fun i -> b.min_pr + i))

let same s (o : Intra_oracle.reduction) =
  Intra.cost s = o.cost && Intra.ctx s = o.ctx

let agrees_at th (pr, sr) =
  let b = th.Inter.bounds in
  let ctx = th.Inter.ctx and root = th.Inter.state in
  let oracle f = f ctx ~pr:b.max_pr ~r:b.max_r ~target_pr:pr ~target_sr:sr in
  let exact =
    match
      (Intra.reduce_to root ~target_pr:pr ~target_sr:sr,
       oracle Intra_oracle.reduce_to)
    with
    | None, None -> true
    | Some s, Some o -> same s o && Intra.pr s = pr && Intra.r s = pr + sr
    | Some _, None | None, Some _ -> false
  in
  let best =
    match
      (Intra.reduce_to_best root ~target_pr:pr ~target_sr:sr,
       oracle Intra_oracle.reduce_to_best)
    with
    | None, None -> true
    | Some (s, p, q), Some (o, p', q') -> same s o && p = p' && q = q'
    | Some _, None | None, Some _ -> false
  in
  exact && best

(* The three steps of a state, memoised and from the oracle. *)
let steps =
  [
    (Intra.reduce_pr, Intra_oracle.reduce_pr);
    (Intra.demote_pr, Intra_oracle.demote_pr);
    (Intra.reduce_sr, Intra_oracle.reduce_sr);
  ]

let step_agrees s (memo, oracle) =
  match (memo s, oracle (Intra.ctx s) ~pr:(Intra.pr s) ~r:(Intra.r s)) with
  | None, None -> true
  | Some c, Some o -> same c o
  | Some _, None | None, Some _ -> false

(* Walks [path] (step indices) down the tree; at every state visited,
   each of its three slots must hold the oracle's step. *)
let rec walk_agrees s = function
  | _ when not (List.for_all (step_agrees s) steps) -> false
  | [] -> true
  | k :: path -> (
    match (fst (List.nth steps k)) s with
    | None -> true
    | Some child -> walk_agrees child path)

let oracle_props =
  [
    prop "every slot of every state on a walk holds the oracle's step"
      (QCheck.pair arb_source
         QCheck.(list_of_size Gen.(int_range 0 4) (int_range 0 2)))
      (fun (src, path) ->
        walk_agrees (Inter.init_thread (program src)).Inter.state path);
    prop "memoised reduce_to and reduce_to_best equal the oracle at every \
          target"
      arb_source
      (fun src ->
        let th = Inter.init_thread (program src) in
        List.for_all (agrees_at th) (targets th.Inter.bounds));
  ]

let fig4_root () =
  Inter.init_thread (Webs.rename (Fixtures.fig4_frag ()))

let memo_tests =
  [
    test "a state computes each step once" (fun () ->
        let root = (fig4_root ()).Inter.state in
        List.iter
          (fun (name, step) ->
            match (step root, step root) with
            | Some a, Some b -> check Alcotest.bool name true (a == b)
            | None, None -> ()
            | _ -> Alcotest.failf "%s: second call disagrees" name)
          [
            ("strong PR", Intra.reduce_pr);
            ("demote PR", Intra.demote_pr);
            ("SR", Intra.reduce_sr);
          ]);
    test "walks to one target share every state" (fun () ->
        let th = fig4_root () in
        let b = th.Inter.bounds in
        let target_pr = b.Estimate.min_pr in
        let target_sr = max 0 (b.Estimate.min_r - target_pr) in
        let walk () =
          Intra.reduce_to th.Inter.state ~target_pr ~target_sr
        in
        match (walk (), walk ()) with
        | Some a, Some b -> check Alcotest.bool "same leaf" true (a == b)
        | _ -> Alcotest.fail "fig4 must reach its floor");
    test "drr: the sweep's first targets share their prefix and equal \
          the oracle" (fun () ->
        let th = Inter.init_thread (program (Kernel "drr")) in
        let b = th.Inter.bounds in
        let sr = b.Estimate.max_r - b.Estimate.max_pr in
        let near = (b.Estimate.max_pr - 1, sr)
        and far = (b.Estimate.max_pr - 2, sr) in
        check Alcotest.bool "one step" true (agrees_at th near);
        check Alcotest.bool "two steps" true (agrees_at th far);
        match
          (Intra.reduce_pr th.Inter.state,
           Intra.reduce_to th.Inter.state ~target_pr:(fst near)
             ~target_sr:sr)
        with
        | Some a, Some b -> check Alcotest.bool "shared first step" true (a == b)
        | _ -> Alcotest.fail "drr must take a strong PR-step from MaxPR");
    test "detach keeps the point and drops the memo" (fun () ->
        let root = (fig4_root ()).Inter.state in
        let d = Intra.detach root in
        check Alcotest.bool "same context" true (Intra.ctx d == Intra.ctx root);
        check Alcotest.int "same cost" (Intra.cost root) (Intra.cost d);
        match (Intra.reduce_pr root, Intra.reduce_pr d) with
        | Some a, Some b ->
          check Alcotest.bool "recomputed, equal" true
            ((not (a == b)) && Intra.ctx a = Intra.ctx b)
        | None, None -> ()
        | _ -> Alcotest.fail "detached state disagrees");
  ]

let suite =
  [ ("regalloc.step_tree", memo_tests); ("regalloc.step_tree.oracle", oracle_props) ]

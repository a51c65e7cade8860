(* Tests for the core allocator machinery: NSRs, the allocation context
   (interference), estimation, and the colour-elimination engine. *)

open Npra_ir
open Npra_cfg
open Npra_regalloc

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

let nsr_tests =
  [
    test "fig4 frag has the paper's three NSRs (plus the halt)" (fun () ->
        (* The paper's Figure 4 shows 3 NSRs; our fixture additionally has
           an explicit trailing halt after the final store (a CSB), which
           forms a singleton fourth region. *)
        let nsr = Nsr.compute (Fixtures.fig4_frag ()) in
        check Alcotest.int "regions" 4 (Nsr.num_regions nsr);
        let singletons =
          Array.to_list (Nsr.region_sizes nsr) |> List.filter (( = ) 1)
        in
        check Alcotest.int "one singleton (the halt)" 1 (List.length singletons));
    test "csb instructions belong to no region" (fun () ->
        let p = Fixtures.fig4_frag () in
        let nsr = Nsr.compute p in
        Prog.fold_instrs
          (fun () i ins ->
            if Instr.causes_ctx_switch ins then
              check Alcotest.bool "no region" true (Nsr.region_of_instr nsr i = None))
          () p);
    test "all non-csb instructions covered" (fun () ->
        let p = Fixtures.fig4_frag () in
        let nsr = Nsr.compute p in
        Prog.fold_instrs
          (fun () i ins ->
            if not (Instr.causes_ctx_switch ins) then
              check Alcotest.bool "region" true (Nsr.region_of_instr nsr i <> None))
          () p);
    test "region sizes sum to non-csb instructions" (fun () ->
        let p = Fixtures.fig4_frag () in
        let nsr = Nsr.compute p in
        let non_csb =
          Prog.fold_instrs
            (fun acc _ i -> if Instr.causes_ctx_switch i then acc else acc + 1)
            0 p
        in
        check Alcotest.int "sum" non_csb
          (Array.fold_left ( + ) 0 (Nsr.region_sizes nsr)));
    test "fig3 thread1 has two NSRs" (fun () ->
        (* instr 0 alone before the ctx_switch; 2..10 after it; the final
           load at 11 is a boundary, halt at 12 joins nothing before it *)
        let nsr = Nsr.compute (Fixtures.fig3_thread1 ()) in
        check Alcotest.int "regions" 3 (Nsr.num_regions nsr));
    test "almost-ctx-free program splits only at its final store" (fun () ->
        let p = Fixtures.diamond_loop () in
        let nsr = Nsr.compute p in
        (* the store at the end is the only CSB: loop region + halt region *)
        check Alcotest.bool "at most 2" true (Nsr.num_regions nsr <= 2));
  ]

let context_of prog = Context.create (Webs.rename prog)

let context_tests =
  [
    test "fig3 thread1: three nodes, a boundary" (fun () ->
        let ctx = context_of (Fixtures.fig3_thread1 ()) in
        check Alcotest.int "nodes" 3 (Context.num_nodes ctx);
        let boundary = List.filter Context.is_boundary (Context.nodes ctx) in
        check Alcotest.int "one boundary" 1 (List.length boundary);
        check Alcotest.string "it is a" "v0"
          (Reg.to_string (List.hd boundary).Context.vreg));
    test "fig3 thread1: pairwise interference (triangle)" (fun () ->
        let ctx = context_of (Fixtures.fig3_thread1 ()) in
        List.iter
          (fun n ->
            check Alcotest.int "two neighbours" 2
              (List.length (Context.neighbors ctx n)))
          (Context.nodes ctx));
    test "fig4: boundary clique is sum, buf, len" (fun () ->
        let ctx = context_of (Fixtures.fig4_frag ()) in
        let boundary = List.filter Context.is_boundary (Context.nodes ctx) in
        check Alcotest.int "three boundary nodes" 3 (List.length boundary);
        List.iter
          (fun n ->
            let bn = Context.boundary_neighbors ctx n in
            check Alcotest.int "boundary-interferes with the other two" 2
              (List.length bn))
          boundary);
    test "fig4: tmp1 and tmp2 are internal and not co-live" (fun () ->
        let ctx = context_of (Fixtures.fig4_frag ()) in
        let internal =
          List.filter (fun n -> not (Context.is_boundary n)) (Context.nodes ctx)
        in
        (* tmp1, tmp2 plus the out_addr and tmp_hi temporaries *)
        check Alcotest.bool "at least two internals" true
          (List.length internal >= 2);
        (* no two internal nodes from different regions interfere *)
        List.iter
          (fun n ->
            List.iter
              (fun m ->
                if n.Context.id <> m.Context.id then begin
                  let regions = Context.regions ctx in
                  let rn = Nsr.regions_of_gaps regions n.Context.gaps in
                  let rm = Nsr.regions_of_gaps regions m.Context.gaps in
                  if Points.IntSet.is_empty (Points.IntSet.inter rn rm) then
                    check Alcotest.bool "claim 2: no cross-region interference"
                      false
                      (List.exists
                         (fun x -> x.Context.id = m.Context.id)
                         (Context.neighbors ctx n))
                end)
              internal)
          internal);
    test "carve splits a node and keeps colour" (fun () ->
        let ctx = context_of (Fixtures.fig3_thread1 ()) in
        let n = List.hd (Context.nodes ctx) in
        let ctx = Context.set_color ctx n.Context.id 1 in
        let n = Context.node ctx n.Context.id in
        if Points.IntSet.cardinal n.Context.gaps >= 2 then begin
          let g = Points.IntSet.min_elt n.Context.gaps in
          let ctx', piece = Context.carve ctx n.Context.id (Points.IntSet.singleton g) in
          check Alcotest.int "piece colour" 1 piece.Context.color;
          let n' = Context.node ctx' n.Context.id in
          check Alcotest.bool "gap moved" false (Points.IntSet.mem g n'.Context.gaps);
          check Alcotest.int "node count up" (Context.num_nodes ctx + 1)
            (Context.num_nodes ctx')
        end);
    test "fragment then coalesce restores the partition" (fun () ->
        let ctx = context_of (Fixtures.fig3_thread1 ()) in
        (* colour everything distinctly so coalesce can merge fragments *)
        let ctx =
          List.fold_left
            (fun ctx n -> Context.set_color ctx n.Context.id (n.Context.id + 1))
            ctx (Context.nodes ctx)
        in
        let before = Context.num_nodes ctx in
        let n = List.hd (Context.nodes ctx) in
        let ctx, _ids = Context.fragment ctx n.Context.id in
        let ctx = Context.coalesce ctx in
        check Alcotest.int "back to original" before (Context.num_nodes ctx);
        check Alcotest.int "no moves" 0 (Context.move_count ctx));
    test "move_count counts only colour-changing crossings" (fun () ->
        let ctx = context_of (Fixtures.fig3_thread1 ()) in
        let ctx =
          List.fold_left
            (fun ctx n -> Context.set_color ctx n.Context.id 1)
            ctx (Context.nodes ctx)
        in
        let n = List.hd (Context.nodes ctx) in
        if Points.IntSet.cardinal (Context.node ctx n.Context.id).Context.gaps >= 2
        then begin
          let g =
            Points.IntSet.min_elt (Context.node ctx n.Context.id).Context.gaps
          in
          let ctx', piece =
            Context.carve ctx n.Context.id (Points.IntSet.singleton g)
          in
          (* same colour: free *)
          check Alcotest.int "free split" 0 (Context.move_count ctx');
          let ctx'' = Context.set_color ctx' piece.Context.id 2 in
          check Alcotest.bool "now costs" true (Context.move_count ctx'' > 0)
        end);
    test "check flags clashes" (fun () ->
        let ctx = context_of (Fixtures.fig3_thread1 ()) in
        let ctx =
          List.fold_left
            (fun ctx n -> Context.set_color ctx n.Context.id 1)
            ctx (Context.nodes ctx)
        in
        check Alcotest.bool "clash found" true
          (Context.check ctx ~pr:1 ~r:3 <> []));
  ]

let estimate_tests =
  [
    test "fig3 thread1 bounds" (fun () ->
        let ctx = context_of (Fixtures.fig3_thread1 ()) in
        let _ctx, b = Estimate.run ctx in
        check Alcotest.int "min_pr" 1 b.Estimate.min_pr;
        check Alcotest.int "min_r" 2 b.Estimate.min_r;
        check Alcotest.int "max_pr" 1 b.Estimate.max_pr;
        check Alcotest.int "max_r" 3 b.Estimate.max_r);
    test "estimate colouring is valid at (max_pr, max_r)" (fun () ->
        let ctx = context_of (Fixtures.fig4_frag ()) in
        let ctx, b = Estimate.run ctx in
        check
          (Alcotest.list
             (Alcotest.testable Context.pp_check_error (fun _ _ -> false)))
          "no errors" []
          (Context.check ctx ~pr:b.Estimate.max_pr ~r:b.Estimate.max_r));
    test "estimate costs zero moves" (fun () ->
        let ctx = context_of (Fixtures.fig4_frag ()) in
        let ctx, _ = Estimate.run ctx in
        check Alcotest.int "cost" 0 (Context.move_count ctx));
    test "bounds are ordered" (fun () ->
        List.iter
          (fun p ->
            let ctx = context_of p in
            let _, b = Estimate.run ctx in
            check Alcotest.bool "min_pr <= min_r" true
              (b.Estimate.min_pr <= b.Estimate.min_r);
            check Alcotest.bool "min_pr <= max_pr" true
              (b.Estimate.min_pr <= b.Estimate.max_pr);
            check Alcotest.bool "min_r <= max_r" true
              (b.Estimate.min_r <= b.Estimate.max_r);
            check Alcotest.bool "max_pr <= max_r" true
              (b.Estimate.max_pr <= b.Estimate.max_r))
          [
            Fixtures.fig3_thread1 ();
            Fixtures.fig3_thread2 ();
            Fixtures.fig4_frag ();
            Fixtures.straightline ();
            Fixtures.diamond_loop ();
          ]);
    test "fig4 boundary clique needs MaxPR = 3" (fun () ->
        let ctx = context_of (Fixtures.fig4_frag ()) in
        let _, b = Estimate.run ctx in
        check Alcotest.int "max_pr" 3 b.Estimate.max_pr);
  ]

let intra_tests =
  [
    test "fig3 thread1: reducing to lower bounds succeeds" (fun () ->
        let ctx = context_of (Fixtures.fig3_thread1 ()) in
        let ctx, b = Estimate.run ctx in
        match
          Intra.reduce_to (Intra.root ctx ~pr:b.Estimate.max_pr ~r:b.Estimate.max_r)
            ~target_pr:1 ~target_sr:1
        with
        | None -> Alcotest.fail "reduction failed"
        | Some red ->
          (* The paper's example needs one move; with a three-address ISA
             the definition sites of b and c are free rename points, so
             our engine can reach two registers at zero move cost. Either
             way the result must be a valid colouring. *)
          check Alcotest.bool "cost is non-negative" true (Intra.cost red >= 0);
          check
            (Alcotest.list
               (Alcotest.testable Context.pp_check_error (fun _ _ -> false)))
            "valid at (1,1)" []
            (Context.check (Intra.ctx red) ~pr:1 ~r:2));
    test "reduction below lower bound is refused" (fun () ->
        let ctx = context_of (Fixtures.fig3_thread1 ()) in
        let ctx, b = Estimate.run ctx in
        check Alcotest.bool "none" true
          (Intra.reduce_to (Intra.root ctx ~pr:b.Estimate.max_pr ~r:b.Estimate.max_r)
             ~target_pr:0 ~target_sr:1
          = None));
    test "eliminating an unused colour is free" (fun () ->
        let ctx = context_of (Fixtures.fig3_thread2 ()) in
        let ctx, b = Estimate.run ctx in
        (* thread2: only internal d, max_r=1; eliminate colour 5 of a
           pretend palette (no node carries it) *)
        let ctx' = Intra.eliminate_color ctx ~c:5 ~pr:b.Estimate.max_pr ~r:6 in
        check Alcotest.int "no moves" 0 (Context.move_count ctx'));
    test "fig4: reach the lower bounds" (fun () ->
        let ctx = context_of (Fixtures.fig4_frag ()) in
        let ctx, b = Estimate.run ctx in
        let target_pr = b.Estimate.min_pr in
        let target_sr = max 0 (b.Estimate.min_r - target_pr) in
        match
          Intra.reduce_to (Intra.root ctx ~pr:b.Estimate.max_pr ~r:b.Estimate.max_r)
            ~target_pr ~target_sr
        with
        | None -> Alcotest.fail "reduction failed"
        | Some red ->
          check
            (Alcotest.list
               (Alcotest.testable Context.pp_check_error (fun _ _ -> false)))
            "valid at lower bound" []
            (Context.check (Intra.ctx red) ~pr:target_pr
               ~r:(target_pr + target_sr)));
    test "reduce_to_best lands on or near the floor" (fun () ->
        let ctx = context_of (Fixtures.fig4_frag ()) in
        let ctx, b = Estimate.run ctx in
        match
          Intra.reduce_to_best (Intra.root ctx ~pr:b.Estimate.max_pr ~r:b.Estimate.max_r)
            ~target_pr:b.Estimate.min_pr
            ~target_sr:(max 0 (b.Estimate.min_r - b.Estimate.min_pr))
        with
        | None -> Alcotest.fail "no reduction at all"
        | Some (_, pr, sr) ->
          check Alcotest.bool "within one register" true
            (pr + sr <= b.Estimate.min_r + 1));
  ]

let interference_tests =
  [
    test "fig4 GIG/BIG shapes match Figure 5" (fun () ->
        let g = Interference.build (Webs.rename (Fixtures.fig4_frag ())) in
        let _, boundary, _, big_edges = Interference.stats g in
        (* sum, buf, len form the boundary clique: 3 nodes, 3 BIG edges *)
        check Alcotest.int "boundary nodes" 3 boundary;
        check Alcotest.int "big edges" 3 big_edges);
    test "fig4: boundary interference implies interference" (fun () ->
        let g = Interference.build (Webs.rename (Fixtures.fig4_frag ())) in
        List.iter
          (fun (a, b) ->
            check Alcotest.bool "BIG edge in GIG" true (Interference.interferes g a b))
          (Interference.big_edges g));
    test "claim 2: different IIGs never interfere" (fun () ->
        let g = Interference.build (Webs.rename (Fixtures.fig4_frag ())) in
        let internal = Interference.internal_nodes g in
        List.iter
          (fun (n : Interference.node) ->
            List.iter
              (fun (m : Interference.node) ->
                if
                  n.Interference.region <> m.Interference.region
                  && n.Interference.region <> None
                  && m.Interference.region <> None
                then
                  check Alcotest.bool "no edge" false
                    (Interference.interferes g n.Interference.vreg
                       m.Interference.vreg))
              internal)
          internal);
    test "fig3 thread1 GIG is the triangle" (fun () ->
        let g = Interference.build (Webs.rename (Fixtures.fig3_thread1 ())) in
        let n, boundary, gig_edges, big_edges = Interference.stats g in
        check Alcotest.int "nodes" 3 n;
        check Alcotest.int "boundary (a only)" 1 boundary;
        check Alcotest.int "gig edges" 3 gig_edges;
        check Alcotest.int "no boundary pairs" 0 big_edges);
    test "gig_degree counts incident edges" (fun () ->
        let g = Interference.build (Webs.rename (Fixtures.fig3_thread1 ())) in
        List.iter
          (fun (n : Interference.node) ->
            check Alcotest.int "degree 2" 2
              (Interference.gig_degree g n.Interference.vreg))
          (Interference.nodes g));
  ]

let suite =
  [
    ("regalloc.nsr", nsr_tests);
    ("regalloc.interference", interference_tests);
    ("regalloc.context", context_tests);
    ("regalloc.estimate", estimate_tests);
    ("regalloc.intra", intra_tests);
  ]

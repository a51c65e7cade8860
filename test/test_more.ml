(* Second round of coverage: the machine's accounting, the context's
   hazard API, the balancer's weak (demote) step, estimation corner
   cases, NSR gap mapping, and deterministic workload goldens. *)

open Npra_ir
open Npra_cfg
open Npra_regalloc
open Npra_sim

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

(* ---------------- machine accounting ---------------- *)

let machine_tests =
  [
    test "utilization decomposes total cycles" (fun () ->
        let w =
          Npra_workloads.Registry.instantiate
            (Npra_workloads.Registry.find_exn "crc32") ~slot:0
        in
        let prog = Webs.rename w.Npra_workloads.Workload.prog in
        let res = Chaitin.allocate ~k:128 ~spill_base:768 prog in
        let layout = Assign.fixed_partition ~nreg:128 ~nthd:1 in
        let phys =
          Rewrite.apply_map res.Chaitin.prog res.Chaitin.coloring
            ~reg_of_color:(Assign.reg_of_color layout ~thread:0)
        in
        let r =
          Machine.report
            (Machine.run ~mem_image:w.Npra_workloads.Workload.mem_image [ phys ])
        in
        check Alcotest.int "busy + switch + idle = total" r.Machine.total_cycles
          (r.Machine.busy_cycles + r.Machine.switch_cycles + r.Machine.idle_cycles);
        check Alcotest.bool "utilization in (0,1]" true
          (r.Machine.utilization > 0. && r.Machine.utilization <= 1.));
    test "a lone thread with no memory ops is 100% busy minus switches"
      (fun () ->
        let p =
          Prog.make ~name:"pure"
            ~code:
              [
                Instr.Movi { dst = Reg.P 0; imm = 1 };
                Instr.Alu { op = Instr.Add; dst = Reg.P 0; src1 = Reg.P 0; src2 = Instr.Imm 1 };
                Instr.Halt;
              ]
            ~labels:[]
        in
        let r = Machine.report (Machine.run [ p ]) in
        check Alcotest.int "no idle" 0 r.Machine.idle_cycles);
    test "waiting threads accumulate wait cycles" (fun () ->
        (* two compute-heavy threads on one PU: each must wait while the
           other runs between its yields *)
        let mk name =
          let b = Builder.create ~name in
          let x = Builder.fresh b in
          Builder.movi b x 0;
          for _ = 1 to 10 do
            Builder.add b x x (Builder.imm 1);
            Builder.ctx_switch b
          done;
          Builder.store b x x 0;
          Builder.halt b;
          Chaitin.(
            let res = allocate ~k:4 ~spill_base:900 (Webs.rename (Builder.finish b)) in
            Rewrite.apply_map res.prog res.coloring ~reg_of_color:(fun c -> Reg.P (c - 1)))
        in
        let r = Machine.report (Machine.run [ mk "a"; mk "b" ]) in
        List.iter
          (fun tr ->
            check Alcotest.bool (tr.Machine.name ^ " waited") true
              (tr.Machine.wait_cycles > 0))
          r.Machine.thread_reports);
    test "higher switch cost slows yield-heavy threads" (fun () ->
        (* two yielding threads actually hand the PU back and forth, so
           the switch cost is paid on every yield *)
        let mk name =
          Prog.make ~name
            ~code:(List.init 10 (fun _ -> Instr.Ctx_switch) @ [ Instr.Halt ])
            ~labels:[]
        in
        let cycles cost =
          let config = { Machine.default_config with ctx_switch_cost = cost } in
          (Machine.report (Machine.run ~config [ mk "a"; mk "b" ]))
            .Machine.total_cycles
        in
        check Alcotest.bool "cost matters" true (cycles 5 > cycles 1));
    test "memory latency config is respected" (fun () ->
        let p =
          Prog.make ~name:"onewait"
            ~code:
              [
                Instr.Movi { dst = Reg.P 0; imm = 50 };
                Instr.Load { dst = Reg.P 1; addr = Reg.P 0; off = 0 };
                Instr.Halt;
              ]
            ~labels:[]
        in
        let total lat =
          let config = { Machine.default_config with mem_latency = lat } in
          (Machine.report (Machine.run ~config [ p ])).Machine.total_cycles
        in
        check Alcotest.int "latency delta" 30 (total 50 - total 20));
  ]

let timeline_tests =
  [
    test "timeline is empty unless requested" (fun () ->
        let p =
          Prog.make ~name:"t" ~code:[ Instr.Halt ] ~labels:[]
        in
        let m = Machine.run [ p ] in
        check Alcotest.int "no events" 0 (List.length (Machine.timeline m)));
    test "timeline records dispatch and halt" (fun () ->
        let p =
          Prog.make ~name:"t"
            ~code:[ Instr.Nop; Instr.Halt ]
            ~labels:[]
        in
        let m = Machine.run ~timeline:true [ p ] in
        let events = List.map (fun (_, _, e) -> e) (Machine.timeline m) in
        check Alcotest.bool "dispatched" true
          (List.mem Machine.Dispatched events);
        check Alcotest.bool "halted" true (List.mem Machine.Halted events));
    test "timeline events are time-ordered" (fun () ->
        let w =
          Npra_workloads.Registry.instantiate
            (Npra_workloads.Registry.find_exn "route") ~slot:0
        in
        let prog = Webs.rename w.Npra_workloads.Workload.prog in
        let res = Chaitin.allocate ~k:128 ~spill_base:768 prog in
        let layout = Assign.fixed_partition ~nreg:128 ~nthd:1 in
        let phys =
          Rewrite.apply_map res.Chaitin.prog res.Chaitin.coloring
            ~reg_of_color:(Assign.reg_of_color layout ~thread:0)
        in
        let m =
          Machine.run ~timeline:true
            ~mem_image:w.Npra_workloads.Workload.mem_image [ phys ]
        in
        let cycles = List.map (fun (c, _, _) -> c) (Machine.timeline m) in
        check Alcotest.bool "sorted" true
          (List.sort compare cycles = cycles));
  ]

(* ---------------- context hazard API ---------------- *)

let hazard_tests =
  [
    test "whole webs produce no hazard edges" (fun () ->
        let ctx = Context.create (Webs.rename (Fixtures.fig4_frag ())) in
        List.iter
          (fun n ->
            check Alcotest.int "no hazards" 0
              (List.length (Context.hazard_neighbors ctx n)))
          (Context.nodes ctx));
    test "a split at a load edge creates the hazard pair" (fun () ->
        (* v0 live across a load of v1; splitting v0 exactly at the load
           edge makes v0's pre-load segment a hazard partner of v1 *)
        let p =
          Prog.make ~name:"hz"
            ~code:
              [
                Instr.Movi { dst = Reg.V 0; imm = 1 };
                Instr.Movi { dst = Reg.V 2; imm = 100 };
                Instr.Load { dst = Reg.V 1; addr = Reg.V 2; off = 0 };
                Instr.Store { src = Reg.V 0; addr = Reg.V 2; off = 1 };
                Instr.Store { src = Reg.V 1; addr = Reg.V 2; off = 2 };
                Instr.Halt;
              ]
            ~labels:[]
        in
        let ctx = Context.create p in
        (* colour everything, then split v0 at the load edge (gap 3) *)
        let v0 =
          List.find (fun n -> Reg.equal n.Context.vreg (Reg.V 0)) (Context.nodes ctx)
        in
        let ctx =
          List.fold_left
            (fun ctx n -> Context.set_color ctx n.Context.id (n.Context.id + 1))
            ctx (Context.nodes ctx)
        in
        let pre = Points.IntSet.filter (fun g -> g <= 2) v0.Context.gaps in
        let ctx, piece = Context.carve ctx v0.Context.id pre in
        (* give the pre-load piece the load destination's colour *)
        let v1 =
          List.find (fun n -> Reg.equal n.Context.vreg (Reg.V 1)) (Context.nodes ctx)
        in
        let ctx = Context.set_color ctx piece.Context.id v1.Context.color in
        check Alcotest.bool "violation detected" true
          (Context.hazard_violations ctx <> []);
        (* aligning the colours again removes the move and the hazard *)
        let v0_rest = Context.node ctx v0.Context.id in
        let ctx' = Context.set_color ctx piece.Context.id v0_rest.Context.color in
        check Alcotest.int "aligned = no violation" 0
          (List.length (Context.hazard_violations ctx')));
    test "crossing_moves skips definition boundaries" (fun () ->
        (* v0 redefined mid-stream: a segment boundary at the def edge
           must not emit a move *)
        let p =
          Prog.make ~name:"defsplit"
            ~code:
              [
                Instr.Movi { dst = Reg.V 0; imm = 1 };
                Instr.Movi { dst = Reg.V 1; imm = 100 };
                Instr.Store { src = Reg.V 0; addr = Reg.V 1; off = 0 };
                Instr.Alu { op = Instr.Add; dst = Reg.V 0; src1 = Reg.V 0; src2 = Instr.Imm 1 };
                Instr.Store { src = Reg.V 0; addr = Reg.V 1; off = 1 };
                Instr.Halt;
              ]
            ~labels:[]
        in
        let ctx = Context.create p in
        let v0 =
          List.find (fun n -> Reg.equal n.Context.vreg (Reg.V 0)) (Context.nodes ctx)
        in
        let ctx =
          List.fold_left
            (fun ctx n -> Context.set_color ctx n.Context.id (n.Context.id + 1))
            ctx (Context.nodes ctx)
        in
        (* split at the def edge (instr 3 defines v0; its def gap is 4) *)
        let post = Points.IntSet.filter (fun g -> g >= 4) v0.Context.gaps in
        let ctx, piece = Context.carve ctx v0.Context.id post in
        let ctx = Context.set_color ctx piece.Context.id 9 in
        check Alcotest.int "no move for the def boundary" 0
          (List.length
             (List.filter
                (fun ((p', _), _, _, _) -> p' = 3)
                (Context.crossing_moves ctx))));
  ]

(* ---------------- balancer: the weak PR step ---------------- *)

let demote_tests =
  [
    test "demotion trades one private for one shared colour" (fun () ->
        let ctx = Context.create (Webs.rename (Fixtures.fig4_frag ())) in
        let ctx, b = Estimate.run ctx in
        let pr = b.Estimate.max_pr and r = b.Estimate.max_r in
        if pr > b.Estimate.min_pr then
          match Intra.demote_pr (Intra.root ctx ~pr ~r) with
          | None -> Alcotest.fail "demotion refused above the floor"
          | Some red ->
            check Alcotest.int "valid at (pr-1, r)" 0
              (List.length (Context.check (Intra.ctx red) ~pr:(pr - 1) ~r)));
    test "the balancer reduces below the naive pooled estimate" (fun () ->
        (* drr (PR slack: MaxPR 25 vs MinPR 18) next to fir2dim (big SR):
           one register under the naive demand forces a PR-step or a
           demotion on drr *)
        let drr =
          (Npra_workloads.Registry.instantiate
             (Npra_workloads.Registry.find_exn "drr") ~slot:0)
            .Npra_workloads.Workload.prog
        and fir =
          (Npra_workloads.Registry.instantiate
             (Npra_workloads.Registry.find_exn "fir2dim") ~slot:1)
            .Npra_workloads.Workload.prog
        in
        let drr = Webs.rename drr and fir = Webs.rename fir in
        let naive =
          List.fold_left
            (fun (pr_sum, max_sr) p ->
              let ctx = Context.create p in
              let _, b = Estimate.run ctx in
              ( pr_sum + b.Estimate.max_pr,
                max max_sr (b.Estimate.max_r - b.Estimate.max_pr) ))
            (0, 0) [ drr; fir ]
          |> fun (a, b) -> a + b
        in
        match Inter.allocate ~nreg:(naive - 1) [ drr; fir ] with
        | Error (`Infeasible m) -> Alcotest.fail m
        | Ok inter ->
          check Alcotest.bool "fits below the naive demand" true
            (Inter.demand inter.Inter.threads <= naive - 1);
          Array.iter
            (fun th ->
              check Alcotest.int (th.Inter.name ^ " valid") 0
                (List.length
                   (Context.check th.Inter.ctx ~pr:th.Inter.pr
                      ~r:(th.Inter.pr + th.Inter.sr))))
            inter.Inter.threads);
  ]

(* ---------------- estimation corners ---------------- *)

let estimate_tests =
  [
    test "a program with no CSBs has MaxPR 0" (fun () ->
        let b = Builder.create ~name:"nocsb" in
        let x = Builder.fresh b in
        Builder.movi b x 1;
        Builder.add b x x (Builder.imm 1);
        Builder.halt b;
        let ctx = Context.create (Webs.rename (Builder.finish b)) in
        let _, bounds = Estimate.run ctx in
        check Alcotest.int "min_pr" 0 bounds.Estimate.min_pr;
        check Alcotest.int "max_pr" 0 bounds.Estimate.max_pr;
        check Alcotest.bool "max_r > 0" true (bounds.Estimate.max_r > 0));
    test "single-instruction thread estimates" (fun () ->
        let p = Prog.make ~name:"halt" ~code:[ Instr.Halt ] ~labels:[] in
        let ctx = Context.create p in
        let _, bounds = Estimate.run ctx in
        check Alcotest.int "max_r" 0 bounds.Estimate.max_r);
    test "boundary-first: MaxPR never exceeds boundary count" (fun () ->
        List.iter
          (fun id ->
            let w =
              Npra_workloads.Registry.instantiate
                (Npra_workloads.Registry.find_exn id) ~slot:0
            in
            let ctx = Context.create (Webs.rename w.Npra_workloads.Workload.prog) in
            let boundary =
              List.length (List.filter Context.is_boundary (Context.nodes ctx))
            in
            let _, b = Estimate.run ctx in
            check Alcotest.bool (id ^ " bounded") true
              (b.Estimate.max_pr <= boundary))
          [ "frag"; "url"; "route"; "crc32" ]);
  ]

(* ---------------- NSR gap mapping ---------------- *)

let nsr_gap_tests =
  [
    test "gaps at CSB instructions are boundary gaps" (fun () ->
        let p = Fixtures.fig4_frag () in
        let nsr = Nsr.compute p in
        Prog.fold_instrs
          (fun () i ins ->
            if Instr.causes_ctx_switch ins then
              check Alcotest.bool "boundary gap" true
                (Nsr.region_of_gap nsr i = None))
          () p);
    test "the end-of-program gap is a boundary gap" (fun () ->
        let p = Fixtures.fig4_frag () in
        let nsr = Nsr.compute p in
        check Alcotest.bool "end gap" true
          (Nsr.region_of_gap nsr (Prog.length p) = None));
    test "regions_of_gaps collects each touched region once" (fun () ->
        let p = Fixtures.fig4_frag () in
        let nsr = Nsr.compute p in
        let all_gaps =
          Points.IntSet.of_list (List.init (Prog.length p) Fun.id)
        in
        check Alcotest.int "all regions" (Nsr.num_regions nsr)
          (Points.IntSet.cardinal (Nsr.regions_of_gaps nsr all_gaps)));
  ]

(* ---------------- deterministic workload goldens ---------------- *)

let golden_tests =
  [
    test "crc32 produces its golden first checksum" (fun () ->
        let w =
          Npra_workloads.Registry.instantiate
            (Npra_workloads.Registry.find_exn "crc32") ~slot:0
        in
        let r =
          Refexec.run ~mem_image:w.Npra_workloads.Workload.mem_image
            w.Npra_workloads.Workload.prog
        in
        (* the first store is the first word's checksum; pin it so kernel
           and packet-generator changes are deliberate *)
        match r.Refexec.store_trace with
        | (addr, _) :: _ ->
          check Alcotest.int "first store lands in the output area"
            (Npra_workloads.Workload.output_base w)
            addr
        | [] -> Alcotest.fail "no stores");
    test "every kernel's reference run is reproducible" (fun () ->
        List.iter
          (fun spec ->
            let w = Npra_workloads.Registry.instantiate spec ~slot:0 in
            let run () =
              (Refexec.run ~mem_image:w.Npra_workloads.Workload.mem_image
                 w.Npra_workloads.Workload.prog)
                .Refexec.store_trace
            in
            check Alcotest.bool
              (spec.Npra_workloads.Workload.id ^ " deterministic")
              true
              (run () = run ()))
          Npra_workloads.Registry.all);
    test "kernels on different slots behave identically modulo base"
      (fun () ->
        let spec = Npra_workloads.Registry.find_exn "frag" in
        let w0 = Npra_workloads.Registry.instantiate spec ~slot:0 in
        let w1 = Npra_workloads.Registry.instantiate spec ~slot:1 in
        let tr w =
          (Refexec.run ~mem_image:w.Npra_workloads.Workload.mem_image
             w.Npra_workloads.Workload.prog)
            .Refexec.store_trace
        in
        let shift = Npra_workloads.Workload.instance_size in
        check
          (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
          "shifted trace"
          (List.map (fun (a, v) -> (a + shift, v)) (tr w0))
          (tr w1));
  ]

let suite =
  [
    ("more.machine", machine_tests);
    ("more.timeline", timeline_tests);
    ("more.hazards", hazard_tests);
    ("more.demote", demote_tests);
    ("more.estimate", estimate_tests);
    ("more.nsr_gaps", nsr_gap_tests);
    ("more.goldens", golden_tests);
  ]

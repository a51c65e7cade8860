(* Property-based tests (qcheck).

   A recipe generator produces small structured programs — straight-line
   chunks, diamonds, counted loops, sprinkled loads/stores/ctx_switches —
   with every variable initialised up front and every variable stored at
   the end (so any allocation bug is observable in the store trace). The
   properties drive the whole stack: analysis invariants, estimate
   validity, reduction totality down to the lower bounds, and full
   allocate-rewrite-execute round trips, single- and multi-threaded. *)

open Npra_ir
open Npra_cfg
open Npra_regalloc
open Npra_workloads

(* ---------------- recipe type and builder ---------------- *)

type rinstr =
  | RAlu of int * int * int * int  (* op, dst, src1, src2 *)
  | RAlui of int * int * int * int  (* op, dst, src1, imm *)
  | RMov of int * int
  | RMovi of int * int
  | RLoad of int * int  (* dst, offset *)
  | RStore of int * int  (* src, offset *)
  | RCtx

type rchunk =
  | RStraight of rinstr list
  | RDiamond of int * rinstr list * rinstr list  (* cond var, then, else *)
  | RLoop of int * rinstr list  (* iterations (2-4), body *)

type recipe = { nvars : int; chunks : rchunk list }

let ops = [| Instr.Add; Instr.Sub; Instr.And; Instr.Or; Instr.Xor; Instr.Mul |]

let build_recipe ~name ~mem_base recipe =
  let b = Builder.create ~name in
  let nv = max 2 recipe.nvars in
  let var = Array.init nv (fun i -> Builder.reg b (Fmt.str "x%d" i)) in
  let base = Builder.reg b "base" in
  Builder.movi b base mem_base;
  Array.iteri (fun i v -> Builder.movi b v ((i * 7) + 1)) var;
  let emit_instr = function
    | RAlu (op, d, s1, s2) ->
      Builder.alu b
        ops.(op mod Array.length ops)
        var.(d mod nv)
        var.(s1 mod nv)
        (Builder.rge var.(s2 mod nv))
    | RAlui (op, d, s1, imm) ->
      Builder.alu b
        ops.(op mod Array.length ops)
        var.(d mod nv)
        var.(s1 mod nv)
        (Builder.imm (imm mod 1000))
    | RMov (d, s) -> Builder.mov b var.(d mod nv) var.(s mod nv)
    | RMovi (d, imm) -> Builder.movi b var.(d mod nv) (imm mod 1000)
    | RLoad (d, off) -> Builder.load b var.(d mod nv) base (off mod 64)
    | RStore (s, off) -> Builder.store b var.(s mod nv) base (64 + (off mod 64))
    | RCtx -> Builder.ctx_switch b
  in
  List.iter
    (fun chunk ->
      match chunk with
      | RStraight is -> List.iter emit_instr is
      | RDiamond (v, then_is, else_is) ->
        Builder.if_ b Instr.Eq
          var.(v mod nv)
          (Builder.imm 0)
          ~then_:(fun () -> List.iter emit_instr then_is)
          ~else_:(fun () -> List.iter emit_instr else_is)
      | RLoop (k, body) ->
        Builder.loop b ~iters:(2 + (abs k mod 3)) (fun () -> List.iter emit_instr body))
    recipe.chunks;
  (* observability: store every variable *)
  Array.iteri (fun i v -> Builder.store b v base (128 + i)) var;
  Builder.halt b;
  Builder.finish b

(* ---------------- generators ---------------- *)

open QCheck

let gen_rinstr =
  Gen.(
    frequency
      [
        (5, map (fun (a, b, c, d) -> RAlu (a, b, c, d)) (quad small_nat small_nat small_nat small_nat));
        (2, map (fun (a, b, c, d) -> RAlui (a, b, c, d)) (quad small_nat small_nat small_nat small_nat));
        (2, map (fun (a, b) -> RMov (a, b)) (pair small_nat small_nat));
        (2, map (fun (a, b) -> RMovi (a, b)) (pair small_nat small_nat));
        (2, map (fun (a, b) -> RLoad (a, b)) (pair small_nat small_nat));
        (2, map (fun (a, b) -> RStore (a, b)) (pair small_nat small_nat));
        (1, return RCtx);
      ])

let gen_chunk =
  Gen.(
    frequency
      [
        (4, map (fun is -> RStraight is) (list_size (int_range 1 6) gen_rinstr));
        ( 2,
          map2
            (fun v (a, b) -> RDiamond (v, a, b))
            small_nat
            (pair (list_size (int_range 1 4) gen_rinstr)
               (list_size (int_range 1 4) gen_rinstr)) );
        (1, map2 (fun k is -> RLoop (k, is)) small_nat (list_size (int_range 1 4) gen_rinstr));
      ])

let gen_recipe =
  Gen.(
    map2
      (fun nvars chunks -> { nvars = 2 + (nvars mod 6); chunks })
      small_nat
      (list_size (int_range 1 5) gen_chunk))

let pp_rinstr ppf = function
  | RAlu (a, b, c, d) -> Fmt.pf ppf "alu(%d,%d,%d,%d)" a b c d
  | RAlui (a, b, c, d) -> Fmt.pf ppf "alui(%d,%d,%d,%d)" a b c d
  | RMov (a, b) -> Fmt.pf ppf "mov(%d,%d)" a b
  | RMovi (a, b) -> Fmt.pf ppf "movi(%d,%d)" a b
  | RLoad (a, b) -> Fmt.pf ppf "load(%d,%d)" a b
  | RStore (a, b) -> Fmt.pf ppf "store(%d,%d)" a b
  | RCtx -> Fmt.string ppf "ctx"

let pp_chunk ppf = function
  | RStraight is -> Fmt.pf ppf "straight[%a]" Fmt.(list ~sep:semi pp_rinstr) is
  | RDiamond (v, a, b) ->
    Fmt.pf ppf "diamond(%d)[%a][%a]" v
      Fmt.(list ~sep:semi pp_rinstr)
      a
      Fmt.(list ~sep:semi pp_rinstr)
      b
  | RLoop (k, is) ->
    Fmt.pf ppf "loop(%d)[%a]" k Fmt.(list ~sep:semi pp_rinstr) is

let print_recipe r =
  Fmt.str "{nvars=%d; %a}" r.nvars Fmt.(list ~sep:sp pp_chunk) r.chunks

let arb_recipe = QCheck.make ~print:print_recipe gen_recipe

let count = 60

let prop name arb f = QCheck_alcotest.to_alcotest (Test.make ~count ~name arb f)

(* ---------------- properties ---------------- *)

let program_of ?(mem_base = 0) ?(name = "gen") r =
  Webs.rename (build_recipe ~name ~mem_base r)

let analysis_props =
  [
    prop "bounds are ordered on random programs" arb_recipe (fun r ->
        let prog = program_of r in
        let ctx = Context.create prog in
        let _, b = Estimate.run ctx in
        b.Estimate.min_pr <= b.Estimate.min_r
        && b.Estimate.min_pr <= b.Estimate.max_pr
        && b.Estimate.min_r <= b.Estimate.max_r
        && b.Estimate.max_pr <= b.Estimate.max_r);
    prop "estimate colouring is valid and free" arb_recipe (fun r ->
        let prog = program_of r in
        let ctx = Context.create prog in
        let ctx, b = Estimate.run ctx in
        Context.check ctx ~pr:b.Estimate.max_pr ~r:b.Estimate.max_r = []
        && Context.move_count ctx = 0);
    prop "web renaming preserves behaviour" arb_recipe (fun r ->
        let original = build_recipe ~name:"orig" ~mem_base:0 r in
        let renamed = Webs.rename original in
        let a = Npra_sim.Refexec.run original
        and b = Npra_sim.Refexec.run renamed in
        a.Npra_sim.Refexec.store_trace = b.Npra_sim.Refexec.store_trace);
    prop "interference is symmetric and irreflexive" arb_recipe (fun r ->
        let prog = program_of r in
        let ctx = Context.create prog in
        List.for_all
          (fun n ->
            let ns = Context.neighbors ctx n in
            (not (List.exists (fun m -> m.Context.id = n.Context.id) ns))
            && List.for_all
                 (fun m ->
                   List.exists
                     (fun x -> x.Context.id = n.Context.id)
                     (Context.neighbors ctx m))
                 ns)
          (Context.nodes ctx));
  ]

let reduction_props =
  [
    prop "reduction to (or within one register of) the floor succeeds"
      arb_recipe
      (fun r ->
        (* The paper's Lemma 1 is exact on the IXP (loads hit transfer
           registers); our GPR-targeting loads add write-back hazards that
           can lift the floor slightly — reduce_to_best absorbs that. *)
        let prog = program_of r in
        let ctx = Context.create prog in
        let ctx, b = Estimate.run ctx in
        let target_pr = b.Estimate.min_pr in
        let target_sr = max 0 (b.Estimate.min_r - target_pr) in
        match
          Intra.reduce_to_best (Intra.root ctx ~pr:b.Estimate.max_pr ~r:b.Estimate.max_r)
            ~target_pr ~target_sr
        with
        | None -> false
        | Some (red, pr, sr) ->
          pr + sr <= b.Estimate.min_r + 2
          && Context.check (Intra.ctx red) ~pr ~r:(pr + sr) = []);
    prop "exact reduction, when it succeeds, is hazard-clean" arb_recipe
      (fun r ->
        let prog = program_of r in
        let ctx = Context.create prog in
        let ctx, b = Estimate.run ctx in
        let target_pr = b.Estimate.min_pr in
        let target_sr = max 0 (b.Estimate.min_r - target_pr) in
        match
          Intra.reduce_to (Intra.root ctx ~pr:b.Estimate.max_pr ~r:b.Estimate.max_r)
            ~target_pr ~target_sr
        with
        | None -> true  (* floor lifted by a hazard: allowed *)
        | Some red ->
          Context.check (Intra.ctx red) ~pr:target_pr ~r:(target_pr + target_sr)
          = []);
    prop "demotion preserves validity" arb_recipe (fun r ->
        let prog = program_of r in
        let ctx = Context.create prog in
        let ctx, b = Estimate.run ctx in
        let pr = b.Estimate.max_pr and rr = b.Estimate.max_r in
        if pr <= b.Estimate.min_pr then true
        else
          match Intra.demote_pr (Intra.root ctx ~pr ~r:rr) with
          | None -> true
          | Some red -> Context.check (Intra.ctx red) ~pr:(pr - 1) ~r:rr = []);
  ]

let pipeline_props =
  [
    prop "single-thread pipeline at (near-)minimal registers is faithful"
      arb_recipe
      (fun r ->
        (* the floor is MinR, or MinR+1 when a write-back hazard lifts it *)
        let prog = program_of r in
        let ctx = Context.create prog in
        let _, b = Estimate.run ctx in
        let attempt nreg = Inter.allocate ~nreg [ prog ] in
        let nreg, result =
          match attempt b.Estimate.min_r with
          | Ok inter -> (b.Estimate.min_r, Ok inter)
          | Error _ -> (b.Estimate.min_r + 1, attempt (b.Estimate.min_r + 1))
        in
        match result with
        | Error _ -> false
        | Ok inter ->
          let th = inter.Inter.threads.(0) in
          let layout =
            Assign.layout ~nreg ~prs:[ th.Inter.pr ] ~sgr:inter.Inter.sgr
          in
          let phys =
            Rewrite.apply th.Inter.ctx
              ~reg_of_color:(Assign.reg_of_color layout ~thread:0)
          in
          Verify.check_system layout [ phys ] = []
          &&
          let a = Npra_sim.Refexec.run prog
          and c = Npra_sim.Refexec.run phys in
          a.Npra_sim.Refexec.store_trace = c.Npra_sim.Refexec.store_trace);
    prop "two-thread pipeline under interleaving is faithful"
      (QCheck.pair arb_recipe arb_recipe)
      (fun (r1, r2) ->
        let p1 = program_of ~name:"t0" ~mem_base:0 r1
        and p2 = program_of ~name:"t1" ~mem_base:4096 r2 in
        match Inter.allocate ~nreg:24 [ p1; p2 ] with
        | Error _ -> QCheck.assume_fail ()
        | Ok inter ->
          let prs =
            Array.to_list inter.Inter.threads |> List.map (fun t -> t.Inter.pr)
          in
          let layout = Assign.layout ~nreg:24 ~prs ~sgr:inter.Inter.sgr in
          let phys =
            List.mapi
              (fun i th ->
                Rewrite.apply th.Inter.ctx
                  ~reg_of_color:(Assign.reg_of_color layout ~thread:i))
              (Array.to_list inter.Inter.threads)
          in
          Verify.check_system layout phys = []
          && Npra_core.Pipeline.differential ~mem_image:[] [ p1; p2 ] phys);
    prop "verifier catches random clobbering" arb_recipe (fun r ->
        (* corrupt a correct allocation by retargeting one instruction's
           destination into another thread's private block *)
        let prog = program_of r in
        match Inter.allocate ~nreg:64 [ prog ] with
        | Error _ -> true
        | Ok inter ->
          let th = inter.Inter.threads.(0) in
          (* pretend there is a second thread owning registers 40.. *)
          let layout = Assign.layout ~nreg:64 ~prs:[ th.Inter.pr; 8 ] ~sgr:inter.Inter.sgr in
          let phys =
            Rewrite.apply th.Inter.ctx
              ~reg_of_color:(Assign.reg_of_color layout ~thread:0)
          in
          let corrupted =
            Prog.map_regs
              (fun reg ->
                match reg with
                | Reg.P n when n = 0 ->
                  Reg.P (fst (Assign.private_range layout ~thread:1))
                | other -> other)
              phys
          in
          (* if register 0 was used at all, the corruption is caught *)
          corrupted.Prog.code = phys.Prog.code
          || Verify.check_thread layout ~thread:0 corrupted <> []);
  ]

let workload_props =
  [
    prop "chaitin spilling preserves workload behaviour"
      (QCheck.make ~print:Fun.id
         (QCheck.Gen.oneofl [ "frag"; "crc32"; "url"; "route" ]))
      (fun id ->
        let w = Registry.instantiate (Registry.find_exn id) ~slot:0 in
        let prog = Webs.rename w.Workload.prog in
        let sb = Workload.spill_base w in
        let res = Chaitin.allocate ~k:6 ~spill_base:sb prog in
        let no_spill t = List.filter (fun (a, _) -> a < sb || a >= sb + 256) t in
        let a = Npra_sim.Refexec.run ~mem_image:w.Workload.mem_image prog
        and b =
          Npra_sim.Refexec.run ~mem_image:w.Workload.mem_image res.Chaitin.prog
        in
        a.Npra_sim.Refexec.store_trace = no_spill b.Npra_sim.Refexec.store_trace);
  ]

let opt_props =
  [
    prop "optimiser preserves behaviour on random programs" arb_recipe
      (fun r ->
        let prog = build_recipe ~name:"opt" ~mem_base:0 r in
        let prog', _ = Npra_opt.Opt.run prog in
        let a = Npra_sim.Refexec.run prog
        and b = Npra_sim.Refexec.run prog' in
        a.Npra_sim.Refexec.store_trace = b.Npra_sim.Refexec.store_trace);
    prop "optimiser never grows a program" arb_recipe (fun r ->
        let prog = build_recipe ~name:"opt" ~mem_base:0 r in
        let prog', _ = Npra_opt.Opt.run prog in
        Prog.length prog' <= Prog.length prog);
    prop "optimised programs still allocate and verify" arb_recipe (fun r ->
        let prog = Webs.rename (Npra_opt.Opt.clean (build_recipe ~name:"opt" ~mem_base:0 r)) in
        match Inter.allocate ~nreg:64 [ prog ] with
        | Error _ -> false
        | Ok inter ->
          let th = inter.Inter.threads.(0) in
          let layout =
            Assign.layout ~nreg:64 ~prs:[ th.Inter.pr ] ~sgr:inter.Inter.sgr
          in
          let phys =
            Rewrite.apply th.Inter.ctx
              ~reg_of_color:(Assign.reg_of_color layout ~thread:0)
          in
          Verify.check_system layout [ phys ] = []);
  ]

let asm_props =
  [
    prop "assembly round-trips on random programs" arb_recipe (fun r ->
        let prog = build_recipe ~name:"rt" ~mem_base:0 r in
        let printed = Npra_asm.Printer.to_string prog in
        let reparsed = Npra_asm.Parser.parse_one_exn printed in
        Prog.length prog = Prog.length reparsed
        && Array.for_all2 ( = ) prog.Prog.code reparsed.Prog.code
        && List.for_all
             (fun (l, i) -> Prog.label_index reparsed l = i)
             prog.Prog.labels);
    prop "printed allocations reparse as physical programs" arb_recipe
      (fun r ->
        let prog = program_of r in
        match Inter.allocate ~nreg:64 [ prog ] with
        | Error _ -> QCheck.assume_fail ()
        | Ok inter ->
          let th = inter.Inter.threads.(0) in
          let layout =
            Assign.layout ~nreg:64 ~prs:[ th.Inter.pr ] ~sgr:inter.Inter.sgr
          in
          let phys =
            Rewrite.apply th.Inter.ctx
              ~reg_of_color:(Assign.reg_of_color layout ~thread:0)
          in
          let reparsed =
            Npra_asm.Parser.parse_one_exn (Npra_asm.Printer.to_string phys)
          in
          Prog.all_physical reparsed);
  ]

let sim_props =
  [
    prop "the machine is deterministic" arb_recipe (fun r ->
        let prog = program_of r in
        match Inter.allocate ~nreg:64 [ prog ] with
        | Error _ -> QCheck.assume_fail ()
        | Ok inter ->
          let th = inter.Inter.threads.(0) in
          let layout =
            Assign.layout ~nreg:64 ~prs:[ th.Inter.pr ] ~sgr:inter.Inter.sgr
          in
          let phys =
            Rewrite.apply th.Inter.ctx
              ~reg_of_color:(Assign.reg_of_color layout ~thread:0)
          in
          let run () =
            Npra_sim.Machine.report (Npra_sim.Machine.run [ phys ])
          in
          run () = run ());
    prop "machine and reference executor agree on stores" arb_recipe
      (fun r ->
        let prog = program_of r in
        match Inter.allocate ~nreg:64 [ prog ] with
        | Error _ -> QCheck.assume_fail ()
        | Ok inter ->
          let th = inter.Inter.threads.(0) in
          let layout =
            Assign.layout ~nreg:64 ~prs:[ th.Inter.pr ] ~sgr:inter.Inter.sgr
          in
          let phys =
            Rewrite.apply th.Inter.ctx
              ~reg_of_color:(Assign.reg_of_color layout ~thread:0)
          in
          let m = Npra_sim.Machine.report (Npra_sim.Machine.run [ phys ]) in
          let tr = (List.hd m.Npra_sim.Machine.thread_reports).Npra_sim.Machine.store_trace in
          let a = Npra_sim.Refexec.run phys in
          a.Npra_sim.Refexec.store_trace = tr);
  ]

let suite =
  [
    ("props.analysis", analysis_props);
    ("props.reduction", reduction_props);
    ("props.pipeline", pipeline_props);
    ("props.workloads", workload_props);
    ("props.opt", opt_props);
    ("props.asm", asm_props);
    ("props.sim", sim_props);
  ]

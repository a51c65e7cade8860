(* The benchmark's inputs and ops.

   An op is one public call a user of the system waits for: a cold
   [Pipeline.run_asm] (the [npra allocate] path), a cold
   [Pipeline.portfolio] race, or one [Shard.run] / [Chain.run] on the
   chip. Each op comes in two forms: [run], the untraced call, and
   [traced], the same public calls in the same order with a span around
   each layer's call. [probe] re-runs attribution calls beside a traced
   sample (per-thread init, verify, the race's throughput probes, the
   simulator, the dispatcher); it never runs inside the op's own span. *)

open Npra_ir
open Npra_cfg
open Npra_regalloc
open Npra_workloads
module P = Npra_core.Pipeline
module Machine = Npra_sim.Machine
module Metrics = Npra_traffic.Metrics
module Dispatch = Npra_traffic.Dispatch
module Shard = Npra_chip.Shard
module Chain = Npra_chip.Chain

let nreg = 128
let span = Trace.span
let count name v = Trace.count name (float_of_int v)
let isum = List.fold_left ( + ) 0

(* Arrival streams, fault schedules and shard spreading use this fixed
   seed; the benchmark seed only changes packet words ([packet_words]). *)
let traffic_seed = 42

(* The portfolio slate seed [bench portfolio] uses. *)
let slate_seed = 1

let digest_of programs =
  Digest.to_hex (Digest.string (Npra_asm.Printer.to_string_many programs))

(* ------------------------------------------------------------------ *)
(* Inputs. *)

type mix = {
  name : string;
  progs : Prog.t list;  (* virtual originals *)
  src : string;  (* their printed assembly: what [npra allocate] reads *)
  mem_image : (int * int) list;
  spill_bases : int list;
  traffic : Workload.traffic_spec list;  (* one spec per thread *)
  critical : int;  (* thread whose packets are [critical_served] *)
  refresh : engine:int -> thread:int -> seq:int -> (int * int) list;
}

(* Packet words drawn from the benchmark seed. They change what the
   checks and the traffic replay, never what the allocator sees. *)
let packet_words ~seed ~salt n =
  Workload.random_words ~seed:((seed * 7919) + salt + 1) n

let input_region w a = a >= Workload.input_base w && a < Workload.state_base w

let traffic_of id =
  Option.value (Registry.default_traffic id)
    ~default:Npra_core.Experiments.default_probe_traffic

let kernel_mix ~seed ~per_packet ?(critical = 0) name ids =
  let ws =
    List.mapi
      (fun slot id ->
        let spec = Registry.find_exn id in
        let iters =
          if per_packet then (traffic_of id).Workload.per_packet_iters
          else spec.Workload.default_iters
        in
        Registry.instantiate ~iters spec ~slot)
      ids
  in
  let progs = List.map (fun w -> w.Workload.prog) ws in
  let mem_image =
    List.concat
      (List.mapi
         (fun i w ->
           let inputs, rest =
             List.partition (fun (a, _) -> input_region w a) w.Workload.mem_image
           in
           List.map2
             (fun (a, _) v -> (a, v))
             inputs
             (packet_words ~seed ~salt:(i * 131) (List.length inputs))
           @ rest)
         ws)
  in
  let wa = Array.of_list ws in
  {
    name;
    progs;
    src = Npra_asm.Printer.to_string_many progs;
    mem_image;
    spill_bases = List.map Workload.spill_base ws;
    traffic = List.map traffic_of ids;
    critical;
    refresh =
      (fun ~engine ~thread ~seq ->
        List.mapi
          (fun j v -> (Workload.input_base wa.(thread) + j, v))
          (packet_words ~seed
             ~salt:((engine * 65537) + (thread * 257) + (seq * 13))
             8));
  }

(* A 4-thread [Synthetic.large] mix, threads from generator seeds 1-4.
   Every thread loads words 0..63 and stores above them. *)
let synthetic_mix ~seed size nvars =
  let progs =
    List.init 4 (fun i -> Synthetic.large ~seed:(1 + i) ~nvars ~size ())
  in
  {
    name = Fmt.str "syn%d-v%d" size nvars;
    progs;
    src = Npra_asm.Printer.to_string_many progs;
    mem_image =
      List.mapi (fun a v -> (a, v)) (packet_words ~seed ~salt:size 64);
    spill_bases = P.default_spill_bases progs;
    traffic = List.map (fun _ -> Npra_core.Experiments.default_probe_traffic) progs;
    critical = 0;
    refresh = (fun ~engine:_ ~thread:_ ~seq:_ -> []);
  }

let x4 id = [ id; id; id; id ]

(* Table-3 mixes with the critical thread the paper speeds up. *)
let table3 =
  [
    ("S1", [ "md5"; "md5"; "fir2dim"; "fir2dim" ], 0);
    ("S2", [ "l2l3fwd_rx"; "l2l3fwd_tx"; "md5"; "md5" ], 2);
    ("S3", [ "wraps_rx"; "wraps_tx"; "fir2dim"; "frag" ], 1);
  ]

(* ------------------------------------------------------------------ *)
(* Outcomes and fingerprints. *)

type entrant = { tag : string; result : string }

type outcome =
  | Alloc of (P.balanced, P.source_error) result
  | Race of (P.portfolio, P.diagnostic list) result * entrant list
  | Shard_run of Shard.t
  | Chain_run of Chain.t

(* Everything that must repeat exactly, as (kind, digest) lines: the
   served programs, every race entrant's result, the chip report. *)
let fingerprint = function
  | Alloc (Ok b) ->
    let sc = P.static_score b in
    [
      ( "alloc",
        Fmt.str "%s %a unsafe=%d spills=%d moves=%d demand=%d"
          (digest_of b.P.programs) P.pp_stage b.P.provenance sc.P.sc_unsafe
          sc.P.sc_spills sc.P.sc_moves sc.P.sc_demand );
    ]
  | Alloc (Error e) -> [ ("alloc", Fmt.str "error %a" (P.pp_source_error ?src:None) e) ]
  | Race (winner, entrants) ->
    ( "winner",
      match winner with
      | Ok p ->
        let b = p.P.winner and sc = p.P.winner_score in
        Fmt.str "%s %s unsafe=%d spills=%d moves=%d demand=%d"
          (digest_of b.P.programs) (P.strategy_tag b.P.provenance) sc.P.sc_unsafe
          sc.P.sc_spills sc.P.sc_moves sc.P.sc_demand
      | Error _ -> "error: every entrant failed" )
    :: List.map (fun e -> ("entrant:" ^ e.tag, e.result)) entrants
  | Shard_run t -> [ ("shard", Digest.to_hex (Digest.string (Shard.to_json t))) ]
  | Chain_run c -> [ ("chain", Digest.to_hex (Digest.string (Chain.to_json c))) ]

let entrant_of stage = function
  | Ok b ->
    {
      tag = P.strategy_tag stage;
      result =
        Fmt.str "%s unsafe=%d" (digest_of b.P.programs)
          (List.length b.P.verify_errors);
    }
  | Error _ -> { tag = P.strategy_tag stage; result = "failed" }

(* ------------------------------------------------------------------ *)
(* alloc-chain: one cold [Pipeline.run_asm]. *)

let run_alloc m = Alloc (P.run_asm ~nreg ~spill_bases:m.spill_bases m.src)

let reject stage reason = P.Rejected { stage; reason }

(* [Pipeline.balanced_uncached] at the default move budget: the same
   public calls, each in a span. [Pipeline.finish_inter] packs, rewrites
   and verifies; [Pipeline.chaitin_floor] is the fixed-partition floor,
   its own rewrite and verify included. *)
let traced_chain ~spill_bases progs =
  let wprogs = span "cfg.rename" (fun () -> List.map Webs.rename progs) in
  let budget = P.default_move_budget wprogs in
  let fallback reason =
    span "regalloc.chaitin_floor" (fun () ->
        P.chaitin_floor ~nreg ~spill_bases ~stage:P.Chaitin_fallback
          ~trail:[ reject P.Balanced reason; reject P.Balanced_relaxed reason ]
          wprogs)
  in
  count "regalloc.searches" 1;
  match span "regalloc.inter" (fun () -> Inter.allocate ~nreg wprogs) with
  | Error (`Infeasible msg) ->
    count "regalloc.infeasible" 1;
    fallback msg
  | Ok inter -> (
    let moves = Inter.total_moves inter in
    let provenance, trail =
      if moves <= budget then (P.Balanced, [])
      else (P.Balanced_relaxed, [ reject P.Balanced "move budget exceeded" ])
    in
    match
      span "regalloc.finish_inter" (fun () ->
          P.finish_inter ~nreg ~provenance ~trail inter)
    with
    | b -> Ok b
    | exception Rewrite.Incomplete_coloring _ -> fallback "incomplete colouring")

(* [Pipeline.run_asm]: parse, then the cached chain. *)
let traced_alloc m =
  match span "asm.parse" (fun () -> Npra_asm.Parser.parse m.src) with
  | Error ds -> Alloc (Error (P.Frontend ds))
  | Ok progs -> (
    match P.frontend_guard progs with
    | Error e -> Alloc (Error e)
    | Ok progs ->
      let key =
        P.cache_key ~nreg ~move_budget:None ~spill_bases:(Some m.spill_bases)
          progs
      in
      Alloc
        (Result.map_error
           (fun trail -> P.Alloc trail)
           (P.cached ~key (fun () -> traced_chain ~spill_bases:m.spill_bases progs))))

(* ------------------------------------------------------------------ *)
(* portfolio-race: one cold [Pipeline.portfolio], as [bench portfolio]
   runs it (slate seed 1, probe on), on one worker. *)

let probe_of m =
  { P.probe_mem_image = m.mem_image; probe_traffic = m.traffic; probe_horizon = 24_000 }

let entrant_key m stage =
  P.cache_key ~tag:(P.strategy_tag stage) ~nreg ~move_budget:None
    ~spill_bases:(Some m.spill_bases) m.progs

let family = function
  | P.Balanced | P.Balanced_budget _ -> "budget"
  | P.Balanced_relaxed -> "relaxed"
  | P.Balanced_zero_cost -> "zero-cost"
  | P.Balanced_shuffled _ -> "shuffled"
  | P.Sra_exhaustive -> "sra"
  | P.Chaitin_fallback -> "chaitin"

let families = [ "budget"; "relaxed"; "zero-cost"; "shuffled"; "sra"; "chaitin" ]

let run_race m =
  Race
    ( P.portfolio ~nreg ~spill_bases:m.spill_bases ~seed:slate_seed
        ~probe:(probe_of m) m.progs,
      [] )

(* The race's slate, in slate order, as the race reports it. *)
let slate_of = function Race (Ok p, _) -> List.map fst p.P.slate | _ -> []

(* Every entrant's own result, read back from the cache the race just
   filled (the race returns only the winner), after the timed call. *)
let settle m = function
  | Race (winner, []) as o ->
    Race
      ( winner,
        List.map
          (fun stage ->
            match Hashtbl.find_opt P.cache (entrant_key m stage) with
            | Some r -> entrant_of stage r
            | None -> { tag = P.strategy_tag stage; result = "absent" })
          (slate_of o) )
  | o -> o

(* [Pipeline.portfolio] on one worker, attributed per entrant. Each
   stage of the slate the op's untraced race reported ([first]) runs
   [Pipeline.run_entrant] in its own span, through the cache under the
   key the race looks it up by. The race itself then runs on that warm
   cache and makes its own scoring and probe decisions. The cold race
   is timed by the untraced calls ([core.race_ms]); a change inside
   [portfolio] shows as a gap between it and the entrant spans. *)
let traced_race m ~first =
  let wprogs = span "cfg.rename" (fun () -> List.map Webs.rename m.progs) in
  List.iter
    (fun stage ->
      count "core.entrants" 1;
      match
        P.cached ~key:(entrant_key m stage) (fun () ->
            span ("core.entrant." ^ family stage) (fun () ->
                P.run_entrant ~nreg ~spill_bases:m.spill_bases ~wprogs stage))
      with
      | Ok b when b.P.verify_errors = [] -> ()
      | _ -> count "core.entrant_failures" 1)
    (slate_of first);
  span "core.race_warm" (fun () -> run_race m)

(* ------------------------------------------------------------------ *)
(* fabric-traffic: the chip cells. *)

let chip_config = Npra_chip.Driver.chip_machine_config
let cell_engines = 16
let cell_shards = 4
let cell_duration = 300_000
let chain_duration = 150_000

(* One chip cell serving the set-up allocation [programs] of [m]. *)
let shard_run ~pool ~chaos m programs =
  let chaos_spec, shed, sentinel =
    if chaos then
      ( Some { Npra_traffic.Chaos.quiet with transient_hangs = 1; floods = 1 },
        Some { Dispatch.quantum = 4; burst = 12 },
        `Trap )
    else (None, None, `Off)
  in
  Shard_run
    (Shard.run ~pool ~sentinel ~machine_config:chip_config ~refresh:m.refresh
       ?chaos_spec ?shed ~seed:traffic_seed ~engines:cell_engines
       ~shards:cell_shards ~duration:cell_duration ~specs:m.traffic
       ~mem_image:m.mem_image programs)

let chain_run ~pool cfg =
  Chain_run
    (Chain.run ~pool ~machine_config:chip_config ~seed:traffic_seed
       ~duration:chain_duration cfg)

(* Solo per-packet cycles of a kernel on the chip hierarchy, under its
   fixed-partition baseline allocation: the chain SLO's unit. *)
let solo_cycles spec =
  let w = Registry.instantiate spec ~slot:0 ~iters:1 in
  let base =
    P.baseline ~nreg ~spill_bases:[ Workload.spill_base w ] [ w.Workload.prog ]
  in
  let m =
    Machine.run
      ~config:{ chip_config with max_cycles = 100_000_000 }
      ~mem_image:w.Workload.mem_image base.P.base_programs
  in
  match (List.hd (Machine.report m).Machine.thread_reports).Machine.completion with
  | Some c -> max 1 c
  | None -> 1

(* One rx -> classify -> tx chain per registry chain family, arriving at
   ~80% of the capacity a saturating probe run measures (static solo
   estimates are ~2x optimistic), with SLO p99 = 6 x the stage solos. *)
let chain_configs ~pool =
  let classify = Registry.by_role Workload.Classify in
  List.mapi
    (fun i (family, rx, tx) ->
      let stage kernel width =
        { Chain.st_kernel = kernel; st_width = width; st_threads = 4; st_iters = 1 }
      in
      let stages =
        [ stage rx 2; stage (List.nth classify (i mod List.length classify)) 4; stage tx 2 ]
      in
      let cfg =
        {
          Chain.cf_stages = stages;
          cf_arrival = Workload.Uniform { period = 32 };
          cf_sources = 4;
          cf_queue_capacity = 16;
          cf_quantum = 2;
          cf_slo_p99 =
            6 * isum (List.map (fun st -> solo_cycles st.Chain.st_kernel) stages);
        }
      in
      let cal_duration = 20_000 in
      let probe =
        Chain.run ~pool ~machine_config:chip_config ~seed:(traffic_seed + 7919)
          ~duration:cal_duration cfg
      in
      let rate =
        float_of_int probe.Chain.ch_served /. float_of_int (2 * cal_duration)
      in
      let period =
        if rate <= 0. then 1_000
        else max 1 (int_of_float (Float.ceil (4. /. (0.8 *. rate))))
      in
      ("chain-" ^ family, { cfg with Chain.cf_arrival = Workload.Uniform { period } }))
    (Registry.chain_families ())

(* ------------------------------------------------------------------ *)
(* Ops and workloads. *)

type op = {
  name : string;
  group : string;  (* fit | squeeze | race | calm | chaos | chain *)
  mix : mix option;  (* the allocation input, or the cell's mix *)
  run : Npra_par.Pool.t -> outcome;
  traced : Npra_par.Pool.t -> first:outcome -> outcome;
      (* [first] is the op's first untraced outcome *)
  cold : bool;
      (* the allocation cache is cleared before every call; otherwise
         the op must not allocate at all *)
  setup : P.balanced option;  (* a calm cell's set-up allocation *)
}

let alloc_op group (m : mix) =
  { name = m.name; group; mix = Some m; run = (fun _ -> run_alloc m);
    traced = (fun _ ~first:_ -> traced_alloc m); cold = true; setup = None }

let race_op (m : mix) =
  { name = m.name; group = "race"; mix = Some m; run = (fun _ -> run_race m);
    traced = (fun _ ~first -> traced_race m ~first); cold = true; setup = None }

let alloc_chain ~seed =
  let k ?critical name ids = kernel_mix ~seed ~per_packet:false ?critical name ids in
  let t3 = List.map (fun (n, ids, c) -> k ~critical:c n ids) table3 in
  List.map (alloc_op "fit")
    (t3
    @ [
        k "l2l3+wraps" [ "l2l3fwd_rx"; "l2l3fwd_tx"; "wraps_rx"; "wraps_tx" ];
        k "md5+crc32+url+route" [ "md5"; "crc32"; "url"; "route" ];
        k "fir2dim-x4" (x4 "fir2dim");
        k "drr-x4" (x4 "drr");
        k "crc32-x4" (x4 "crc32");
        k "l2l3fwd_rx-x4" (x4 "l2l3fwd_rx");
        synthetic_mix ~seed 300 28;
      ])
  @ List.map (alloc_op "squeeze")
      ([ k "md5-x4" (x4 "md5"); k "wraps_rx-x4" (x4 "wraps_rx") ]
      @ List.map
          (fun (s, v) -> synthetic_mix ~seed s v)
          [ (100, 32); (200, 31); (200, 32); (300, 31) ])

(* fir2dim x4 is left out to keep five samples of every op within the
   run budget: its race is mostly zero-cost tightening, which drr x4's
   race spends as long in (~0.8 s each). *)
let portfolio_race ~seed =
  let k ?critical name ids = kernel_mix ~seed ~per_packet:true ?critical name ids in
  let s3_name, s3_ids, s3_critical = List.nth table3 2 in
  List.map race_op
    [
      k "drr-x4" (x4 "drr");
      k ~critical:s3_critical s3_name s3_ids;
      k "wraps_rx-x4" (x4 "wraps_rx");
      k "crc32-x4" (x4 "crc32");
      k "l2l3fwd_rx-x4" (x4 "l2l3fwd_rx");
    ]

let fabric_traffic ~pool ~seed =
  let cells =
    List.concat_map
      (fun (name, ids, critical) ->
        let m = kernel_mix ~seed ~per_packet:true ~critical name ids in
        let b = P.balanced_exn ~nreg ~spill_bases:m.spill_bases m.progs in
        List.map
          (fun chaos ->
            let run pool = shard_run ~pool ~chaos m b.P.programs in
            { name = name ^ (if chaos then "-chaos" else "-calm");
              group = (if chaos then "chaos" else "calm");
              mix = Some m;
              run;
              traced =
                (fun pool ~first:_ ->
                  span (if chaos then "chip.shard_chaos" else "chip.shard_calm")
                    (fun () -> run pool));
              cold = false;
              setup = (if chaos then None else Some b) })
          [ false; true ])
      table3
  in
  cells
  @ List.map
      (fun (name, cfg) ->
        { name; group = "chain"; mix = None;
          run = (fun pool -> chain_run ~pool cfg);
          traced = (fun pool ~first:_ -> span "chip.chain" (fun () -> chain_run ~pool cfg));
          cold = false; setup = None })
      (chain_configs ~pool)

(* The allocation an op produced or, for a calm cell, serves. A chaos
   cell serves its calm twin's allocation, which counts once. *)
let allocation op outcome =
  match outcome with
  | Alloc (Ok b) -> Some b
  | Race (Ok p, _) -> Some p.P.winner
  | _ -> op.setup

(* ------------------------------------------------------------------ *)
(* Simulating an allocation. *)

(* The generated code run to completion: (cycles, instructions). *)
let gen_run m programs =
  let r = Machine.report (Machine.run ~mem_image:m.mem_image programs) in
  ( r.Machine.total_cycles,
    isum (List.map (fun t -> t.Machine.instructions) r.Machine.thread_reports) )

let serve_duration = 1_000_000

type replay = {
  served : int;
  dropped : int;
  critical_served : int;
  critical_p99 : int;
  sim_cycles : int;
}

let thread_latencies (rm : Metrics.run_metrics) i =
  List.concat_map
    (fun em ->
      List.concat_map
        (fun t -> if t.Metrics.tm_thread = i then t.Metrics.latencies else [])
        em.Metrics.em_threads)
    rm.Metrics.rm_engines

let p99 latencies =
  match Metrics.percentiles latencies with Some p -> p.Metrics.p99 | None -> 0

let engine_cycles (rm : Metrics.run_metrics) =
  isum
    (List.map (fun em -> em.Metrics.em_report.Machine.total_cycles) rm.Metrics.rm_engines)

(* The allocation serving the mix's registry traffic on one engine. *)
let replay m programs =
  let rm =
    Dispatch.run ~refresh:m.refresh ~seed:traffic_seed ~duration:serve_duration
      ~specs:m.traffic ~mem_image:m.mem_image programs
  in
  let crit = thread_latencies rm m.critical in
  {
    served = Metrics.total_served rm;
    dropped = Metrics.total_dropped rm;
    critical_served = List.length crit;
    critical_p99 = p99 crit;
    sim_cycles = engine_cycles rm;
  }

(* A chip cell's own traffic results, in the same shape. *)
let cell_replay op outcome =
  match (outcome, op.mix) with
  | Shard_run t, Some m ->
    let runs = List.map (fun sr -> sr.Shard.sr_metrics) t.Shard.c_runs in
    let tot = Shard.totals t in
    Some
      {
        served = tot.Shard.t_served;
        dropped = Metrics.drops_total tot.Shard.t_drops;
        critical_served = Shard.served_of_thread t m.critical;
        critical_p99 = p99 (List.concat_map (fun rm -> thread_latencies rm m.critical) runs);
        sim_cycles = isum (List.map engine_cycles runs);
      }
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Checks, outside the timed call. Each returns the reasons it failed. *)

let fail cond why = if cond then [ why ] else []

(* Spill-area stores are allocator traffic, not program behaviour. *)
let spill_area spill_bases a =
  List.exists (fun b -> a >= b && a < b + 256) spill_bases

let check_allocation m (b : P.balanced) =
  fail (b.P.verify_errors <> []) "allocation carries verify errors"
  @ fail
      (Verify.check_system b.P.layout b.P.programs <> [])
      "Verify.check_system rejects the served programs"
  @ fail
      (not
         (try
            P.differential ~ignore_addr:(spill_area m.spill_bases)
              ~mem_image:m.mem_image m.progs b.P.programs
          with _ -> false))
      "store traces differ from Refexec"

(* The race never scores worse than the sequential chain. *)
let check_never_loses m = function
  | Race (Ok { P.winner_score = sc; _ }, _) -> (
    P.cache_clear ();
    match P.balanced ~nreg ~spill_bases:m.spill_bases m.progs with
    | Error _ -> []
    | Ok chain ->
      fail
        (P.compare_static sc (P.static_score chain) > 0)
        (Fmt.str "race winner (%a) loses to the chain (%a)" P.pp_score sc
           P.pp_score (P.static_score chain)))
  | _ -> [ "race produced no winner" ]

(* Checks on every call of an op: conservation, and the chain SLO. *)
let check_call outcome =
  match outcome with
  | Alloc (Error _) -> [ "allocation failed" ]
  | Shard_run t -> fail (not (Shard.conservation_ok t)) "packet conservation broken"
  | Chain_run c ->
    fail (not (Chain.conservation_ok c)) "packet conservation broken"
    @ fail (not c.Chain.ch_slo_ok) "chain SLO missed"
    @ fail
        (c.Chain.ch_max_queue > c.Chain.ch_queue_capacity)
        "chain queue exceeded its capacity"
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Attribution probes, beside a traced sample. *)

(* Per renamed thread: [Points.compute]; [Inter.init_thread], the init
   every [Inter] call pays, back to back after a full major collection
   as in the op's own call; then its halves [Context.create] and
   [Estimate.run]. Returns the threads' bounds. *)
let bounds_probe wprogs =
  List.iter (fun p -> ignore (span "cfg.points" (fun () -> Points.compute p))) wprogs;
  Gc.full_major ();
  let ths = List.map (fun p -> span "regalloc.init" (fun () -> Inter.init_thread p)) wprogs in
  List.iter
    (fun p ->
      let ctx = span "regalloc.context" (fun () -> Context.create p) in
      ignore (span "regalloc.estimate" (fun () -> Estimate.run ctx)))
    wprogs;
  List.map
    (fun th ->
      count "regalloc.context_nodes" (Context.num_nodes th.Inter.ctx);
      th.Inter.bounds)
    ths

(* Per-thread inits a slate stage's [Pipeline.run_entrant] makes, read
   from the stage, not counted in the program: one per thread for an
   [Inter] entrant, one more for the SRA sweep's own, none for Chaitin. *)
let entrant_inits nthd = function
  | P.Chaitin_fallback -> 0
  | P.Sra_exhaustive -> nthd + 1
  | _ -> nthd

(* [Pipeline.probe_served] on each distinct candidate the race probed:
   the entrants its scores carry a probe count for. *)
let race_probe m (p : P.portfolio) =
  let probed =
    List.filter_map
      (fun (stage, oc) ->
        match (oc, Hashtbl.find_opt P.cache (entrant_key m stage)) with
        | ( (P.Won { P.sc_probe = Some _; _ }
            | P.Lost { score = { P.sc_probe = Some _; _ }; _ }),
            Some (Ok b) ) ->
          Some (digest_of b.P.programs, b.P.programs)
        | _ -> None)
      p.P.slate
  in
  List.iter
    (fun (_, programs) ->
      ignore (span "core.probe" (fun () -> P.probe_served (probe_of m) programs)))
    (List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) probed)

let probe op outcome =
  (match outcome with
  | Shard_run t ->
    let tot = Shard.totals t in
    count "chip.offered" tot.Shard.t_offered;
    count "chip.served" tot.Shard.t_served;
    count "chip.dropped" (Metrics.drops_total tot.Shard.t_drops);
    count "chip.residual" tot.Shard.t_residual
  | Chain_run c ->
    count "chip.offered" c.Chain.ch_offered;
    count "chip.served" c.Chain.ch_served;
    count "chip.dropped" c.Chain.ch_dropped;
    count "chip.residual" c.Chain.ch_residual
  | Alloc _ | Race _ -> ());
  match (op.mix, allocation op outcome) with
  | Some m, Some b ->
    span "probe" (fun () ->
        if op.cold then begin
          let bs = bounds_probe (List.map Webs.rename m.progs) in
          let nthd = List.length bs in
          count "regalloc.init_calls"
            (match outcome with
            | Race _ -> isum (List.map (entrant_inits nthd) (slate_of outcome))
            | _ -> nthd);
          let open Estimate in
          let sum_min_pr = isum (List.map (fun b -> b.min_pr) bs) in
          let lower =
            List.fold_left (fun a b -> max a (sum_min_pr - b.min_pr + b.min_r)) 0 bs
          in
          let upper =
            isum (List.map (fun b -> b.max_pr) bs)
            + List.fold_left (fun a b -> max a (b.max_r - b.max_pr)) 0 bs
          in
          count "regalloc.bound_gap_regs" (upper - lower);
          count "regalloc.lb_regs" lower;
          count "regalloc.bounded_ops" 1;
          count "probe.threads" nthd;
          if List.for_all (fun b -> b = List.hd bs) bs then count "probe.symmetric" 1;
          Option.iter
            (fun i -> count "regalloc.demand_reduced_regs" (upper - Inter.demand i.Inter.threads))
            b.P.inter;
          Option.iter
            (fun rs ->
              count "regalloc.chaitin_iterations"
                (isum (List.map (fun r -> r.Chaitin.iterations) rs)))
            b.P.chaitin;
          ignore
            (span "regalloc.verify" (fun () -> Verify.check_system b.P.layout b.P.programs));
          match outcome with Race (Ok p, _) -> race_probe m p | _ -> ()
        end;
        let cycles, instrs = span "sim.run" (fun () -> gen_run m b.P.programs) in
        count "sim.cycles" cycles;
        count "sim.instrs" instrs;
        let r = span "traffic.dispatch" (fun () -> replay m b.P.programs) in
        count "traffic.served" r.served;
        count "traffic.dropped" r.dropped)
  | _ -> ()

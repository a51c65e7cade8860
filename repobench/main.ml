(* The repo benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --record-digests [--seed N]

   One workload per invocation, its inputs made from [--seed]. With
   [--trace 0] it times every op cold, round-robin in a seeded order per
   pass, until [--seconds] have passed and every op has [min_samples]
   samples, then prints the end-to-end metrics. With [--trace 1] every
   pass calls each op untraced and then traced (the same public calls,
   each wrapped in a span from this benchmark's own files), prints the
   per-layer metrics and writes a Chrome trace to [.repobench/].

   Checks run outside the timed calls and are counted in [attempted] /
   [failed]. The last line of standard output is one JSON object; the
   per-op table and any failure go to standard error. See NOTES.md. *)

open Ops
module Pool = Npra_par.Pool

let min_samples = 5
let now = Unix.gettimeofday
let out_dir = ".repobench"
let baseline_dir = Filename.concat "repobench" "baseline"

(* ------------------------------------------------------------------ *)
(* Statistics. *)

let sum = List.fold_left ( +. ) 0.

(* Linear interpolation between closest ranks. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

let geomean = function
  | [] -> 0.
  | xs -> exp (sum (List.map log xs) /. float_of_int (List.length xs))

(* ------------------------------------------------------------------ *)
(* Workloads. *)

type workload = {
  wname : string;
  jobs : int;  (* pool workers of the timed calls *)
  setup_min : int;  (* set-ups made at least; see [time_setups] *)
  setup : pool:Pool.t -> seed:int -> op list;
}

let nproc = Domain.recommended_domain_count ()

let workloads =
  [
    { wname = "alloc-chain"; jobs = 1; setup_min = 30;
      setup = (fun ~pool:_ ~seed -> alloc_chain ~seed) };
    { wname = "portfolio-race"; jobs = 1; setup_min = 30;
      setup = (fun ~pool:_ ~seed -> portfolio_race ~seed) };
    { wname = "fabric-traffic"; jobs = nproc; setup_min = 3;
      setup = fabric_traffic };
  ]

let make_pool jobs = if jobs = 1 then Pool.sequential else Pool.create ~jobs ()

(* ------------------------------------------------------------------ *)
(* Samples and checks. *)

type sample = {
  dt : float;  (* seconds *)
  host : float;
      (* mean seconds of the reference calls just before and just after
         an untraced call (see [reference]); 0 when not bracketed *)
  fp : (string * string) list;
  hits : int;
  misses : int;
  minor : float;  (* minor words *)
  majors : int;
  steals : int;
  layers : Trace.sample;  (* traced samples only *)
}

type stats = {
  op : op;
  mutable first : outcome option;
  mutable untraced : sample list;
  mutable traced : sample list;
  mutable serve_dts : (float * float) list;
      (* traffic replays beside the op: seconds, and the [host] of the
         op's call just before *)
  mutable serve : replay option;
}

let attempted = ref 0
let failed = ref 0

let check op what reasons =
  incr attempted;
  if reasons <> [] then begin
    incr failed;
    List.iter (fun r -> Fmt.epr "FAIL %s: %s: %s@." op.name what r) reasons
  end

(* Derived splits of one traced sample, from calls on the same input:
   - the search is [Inter.allocate] minus the probe's [Inter.init_thread]
     calls;
   - the rewrite is [Pipeline.finish_inter] minus the probe's
     [Verify.check_system] (the layout packing it also holds is tiny);
   - Chaitin is [Pipeline.chaitin_floor] minus that verify, so it holds
     the floor's own rewrite;
   - the SRA sweep is the SRA entrant minus its n+1 inits.
   A split can read below 0 when the part is smaller than the noise. *)
let derived =
  [ "regalloc.search_ms"; "regalloc.rewrite_ms"; "regalloc.chaitin_ms"; "regalloc.sra_ms" ]

let derive layers =
  let g k = Option.value (List.assoc_opt k layers) ~default:0. in
  let minus base part = if List.mem_assoc base layers then g base -. part else 0. in
  let init = g "regalloc.init" and verify = g "regalloc.verify" in
  let n = g "probe.threads" in
  ("regalloc.search", minus "regalloc.inter" init)
  :: ("regalloc.rewrite", minus "regalloc.finish_inter" verify)
  :: ("regalloc.chaitin", minus "regalloc.chaitin_floor" verify)
  :: ( "regalloc.sra",
       if List.mem_assoc "core.entrant.sra" layers && g "probe.symmetric" > 0. && n > 0.
       then
         g "core.entrant.sra" -. (init *. (n +. 1.) /. n)
       else 0. )
  :: layers

(* Host-speed reference. On a shared host the speed of allocation-heavy
   code drifts by a third from one minute to the next, and within a
   run, as neighbours load the memory system: far more than the change
   a later optimisation must resolve. So a fixed reference computation,
   which calls nothing in the library, runs just before and just after
   every untraced call and every set-up, and each time is scaled by
   [reference_s] / (the mean of those two references): it reads as a
   time on a host where the reference takes [reference_s]. Medians are
   taken over the scaled times. Raw times are printed to standard error
   beside them. *)
module IM = Map.Make (Int)

let reference_s = 0.020
let scaled (dt, host) = dt *. reference_s /. host

let reference () =
  let m = ref IM.empty in
  for i = 0 to 30_000 do
    m := IM.add ((i * 7919) land 0xFFFFF) i !m
  done;
  let h = Hashtbl.create 16 in
  IM.iter (fun k v -> Hashtbl.replace h (k lxor v) k) !m;
  List.length (List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) h []))

let reference_dts = ref []

(* An empty minor heap before it, and the reference allocates well
   under the 32 MB minor heap: it runs without a collection. *)
let time_reference () =
  Gc.minor ();
  let t0 = now () in
  ignore (Sys.opaque_identity (reference ()));
  let dt = now () -. t0 in
  reference_dts := dt :: !reference_dts;
  dt

(* [f ()] between two reference calls: its result and their mean. *)
let bracketed f =
  let r0 = time_reference () in
  let x = f () in
  (x, (r0 +. time_reference ()) /. 2.)

(* One set-up, after a cache clear and a full major collection, between
   two reference calls: (ops, (seconds, their mean)). *)
let set_up w ~pool ~seed =
  P.cache_clear ();
  let (ops, dt), host =
    bracketed (fun () ->
        Gc.full_major ();
        let t0 = now () in
        let ops = w.setup ~pool ~seed in
        (ops, now () -. t0))
  in
  (ops, (dt, host))

(* More set-ups after the passes, until there are [w.setup_min] and
   [setup_budget] seconds of them: run before the first pass, their
   count would change the heap history [peak_heap_mb] reads. Returns
   the set-ups' count, and their median raw and scaled seconds. *)
let setup_budget = 2.

let time_setups w ~pool ~seed first =
  let t_start = now () in
  let rec go xs =
    if List.length xs >= w.setup_min && now () -. t_start >= setup_budget then
      (List.length xs, median (List.map fst xs), median (List.map scaled xs))
    else go (snd (set_up w ~pool ~seed) :: xs)
  in
  go [ first ]

(* One timed call, traced when given the op's [first] outcome. A cold op
   starts from an empty allocation cache; every call starts after a full
   major collection. *)
let call ~pool ?first op =
  let traced = first <> None in
  if op.cold then P.cache_clear ();
  Gc.full_major ();
  let c0 = P.cache_stats () and g0 = Gc.quick_stat () in
  let s0 = Pool.steal_count pool in
  if traced then begin
    Trace.begin_sample op.name;
    Trace.on := true
  end;
  let t0 = now () in
  let o =
    match first with
    | Some first -> span "op" (fun () -> op.traced pool ~first)
    | None -> op.run pool
  in
  let dt = now () -. t0 in
  let g1 = Gc.quick_stat () and c1 = P.cache_stats () in
  let s1 = Pool.steal_count pool in
  let o = match op.mix with Some m -> settle m o | None -> o in
  if traced then probe op o;
  Trace.on := false;
  ( o,
    {
      dt;
      host = 0.;
      fp = fingerprint o;
      hits = c1.P.hits - c0.P.hits;
      misses = c1.P.misses - c0.P.misses;
      minor = g1.Gc.minor_words -. g0.Gc.minor_words;
      majors = g1.Gc.major_collections - g0.Gc.major_collections;
      steals = s1 - s0;
      layers = (if traced then derive (Trace.end_sample ()) else []);
    } )

(* Per-call checks: the same fingerprint as the op's first call (the
   untraced one), conservation and SLOs, and the cache discipline: no
   hit in a cold call, no allocation at all in a chip call. A traced
   race computes its entrants before the race looks them up, so there
   every hit must be one of the call's own entries: as many hits as
   misses. *)
let record st ~traced (o, s) =
  if st.first = None then st.first <- Some o;
  let fp0 = fingerprint (Option.get st.first) in
  check st.op
    (if traced then "traced fingerprint" else "fingerprint")
    (fail (s.fp <> fp0) "differs from the op's first untraced call");
  check st.op "call" (check_call o);
  check st.op "cache"
    (if not st.op.cold then fail (s.misses <> 0) (Fmt.str "%d allocations" s.misses)
     else if traced && st.op.group = "race" then
       fail (s.hits <> s.misses) (Fmt.str "%d hits for %d entrants" s.hits s.misses)
     else fail (s.hits <> 0) (Fmt.str "%d cache hits" s.hits));
  if traced then st.traced <- s :: st.traced else st.untraced <- s :: st.untraced

(* The allocation serving its mix's traffic, sampled right after the op
   so that it shares the op's reference calls. *)
let serve st ~host =
  match (st.op.mix, Option.bind st.first (allocation st.op)) with
  | Some m, Some b when st.op.cold ->
    let t0 = now () in
    let r = replay m b.P.programs in
    st.serve_dts <- (now () -. t0, host) :: st.serve_dts;
    (match st.serve with
    | None -> st.serve <- Some r
    | Some r0 -> check st.op "replay" (fail (r <> r0) "traffic replay differs between calls"))
  | _ -> ()

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* Round-robin passes over the ops, the first in workload order and
   the rest in a seeded order, until [seconds] have passed and every op
   has [min_samples] samples of each kind [step] takes. *)
let passes ~seed ~seconds ~traced sts step =
  let t_start = now () in
  let n = Array.length sts in
  let enough st =
    List.length st.untraced >= min_samples
    && ((not traced) || List.length st.traced >= min_samples)
  in
  let finished () = now () -. t_start >= seconds && Array.for_all enough sts in
  let peak = ref 0. and pass = ref 0 in
  while not (finished ()) do
    let order =
      if !pass = 0 then Array.init n Fun.id
      else P.permutation ~seed:((seed * 1009) + !pass) n
    in
    Array.iter (fun i -> if not (finished ()) then step sts.(i)) order;
    if !pass = 0 then peak := peak_heap_mb ();
    incr pass
  done;
  !peak

(* Checks made once per op, on its first call. *)
let checks_once ~pool ~seed sts =
  Array.iter
    (fun st ->
      let o = Option.get st.first in
      match (st.op.mix, allocation st.op o) with
      | Some m, Some b ->
        check st.op "allocation" (check_allocation m b);
        (match o with Race _ -> check st.op "never loses" (check_never_loses m o) | _ -> ())
      | _ -> ())
    sts;
  (* determinism across worker counts, on one seed-chosen op *)
  if Pool.jobs pool > 1 then begin
    let st = sts.(abs seed mod Array.length sts) in
    let o1 = st.op.run Pool.sequential in
    check st.op "1 worker vs n workers"
      (fail
         (fingerprint o1 <> fingerprint (Option.get st.first))
         (Fmt.str "fingerprint differs between 1 and %d workers" (Pool.jobs pool)))
  end

(* ------------------------------------------------------------------ *)
(* Fingerprint baseline. *)

let baseline_path w = Filename.concat baseline_dir (w ^ ".tsv")

(* Seed-independent digests only: served programs, race entrants, the
   calm cells' set-up allocations and the chains. Shard reports carry
   the seeded packet words, so they are checked per run instead. *)
let digest_lines sts =
  List.concat_map
    (fun st ->
      let o = Option.get st.first in
      let own = List.filter (fun (k, _) -> k <> "shard") (fingerprint o) in
      let setup =
        match st.op.setup with
        | Some b -> [ ("setup-alloc", snd (List.hd (fingerprint (Alloc (Ok b))))) ]
        | None -> []
      in
      List.map (fun (k, d) -> (st.op.name, k, d)) (own @ setup))
    (Array.to_list sts)

let read_baseline path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
    Some
      (List.filter_map
         (fun l ->
           match String.split_on_char '\t' l with
           | [ a; b; c ] -> Some ((a, b), c)
           | _ -> None)
         (String.split_on_char '\n' text))

let changed_digests w lines =
  match read_baseline (baseline_path w) with
  | None ->
    Fmt.epr "digests: no baseline at %s@." (baseline_path w);
    List.length lines
  | Some base ->
    List.length
      (List.filter
         (fun (op, kind, d) ->
           match List.assoc_opt (op, kind) base with
           | Some d0 when d0 = d -> false
           | prior ->
             Fmt.epr "digest changed: %s %s: %s -> %s@." op kind
               (Option.value prior ~default:"(none)") d;
             true)
         lines)

let write_lines path lines =
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun (a, b, c) -> Printf.fprintf oc "%s\t%s\t%s\n" a b c) lines);
  Fmt.epr "wrote %s (%d digests)@." path (List.length lines)

(* Record mode: every workload's ops, and the 11 registry kernels x the
   full portfolio slate, each allocated once. *)
let record_digests ~seed =
  List.iter
    (fun w ->
      let pool = make_pool w.jobs in
      P.cache_clear ();
      let sts =
        Array.of_list
          (List.map
             (fun op ->
               let o, _ = call ~pool op in
               { op; first = Some o; untraced = []; traced = []; serve_dts = [];
                 serve = None })
             (w.setup ~pool ~seed))
      in
      write_lines (baseline_path w.wname) (digest_lines sts))
    workloads;
  let lines =
    List.concat_map
      (fun spec ->
        let id = spec.Npra_workloads.Workload.id in
        let m = kernel_mix ~seed ~per_packet:true (id ^ "-x4") (x4 id) in
        P.cache_clear ();
        let o = settle m (run_race m) in
        List.map (fun (k, d) -> (m.name, k, d)) (fingerprint o))
      Npra_workloads.Registry.all
  in
  write_lines (baseline_path "slate") lines

(* ------------------------------------------------------------------ *)
(* Output. *)

let med_dt l = median (List.map (fun s -> s.dt) l)
let med_scaled l = median (List.map (fun s -> scaled (s.dt, s.host)) l)
let layer key s = Option.value (List.assoc_opt key s.layers) ~default:0.

let print_table sts =
  Fmt.epr "%-22s %-8s %4s %11s %11s %11s  %s@." "op" "group" "n" "q1_ms" "median_ms"
    "q3_ms" "digest";
  Array.iter
    (fun st ->
      let ts = List.map (fun s -> 1000. *. s.dt) st.untraced in
      let d = match st.untraced with s :: _ -> snd (List.hd s.fp) | [] -> "-" in
      Fmt.epr "%-22s %-8s %4d %11.3f %11.3f %11.3f  %s@." st.op.name st.op.group
        (List.length ts) (quantile 0.25 ts) (median ts) (quantile 0.75 ts)
        (String.sub d 0 (min 8 (String.length d))))
    sts

(* Traced runs: each op's median milliseconds in the layers it calls. *)
let print_layers sts =
  let keys =
    [ "asm.parse"; "cfg.rename"; "regalloc.inter"; "regalloc.init";
      "regalloc.search"; "regalloc.finish_inter"; "regalloc.chaitin_floor";
      "regalloc.verify"; "core.entrant.sra"; "core.race_warm"; "core.probe";
      "chip.shard_calm"; "chip.shard_chaos"; "chip.chain" ]
  in
  Array.iter
    (fun st ->
      Fmt.epr "%-22s traced %9.3f ms:" st.op.name (1000. *. med_dt st.traced);
      List.iter
        (fun k ->
          let v = 1000. *. median (List.map (layer k) st.traced) in
          if v <> 0. then Fmt.epr " %s %.3f" k v)
        keys;
      Fmt.epr "@.")
    sts

let print_result metrics =
  let json_num v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.17g" v
  in
  let label n =
    if List.mem n derived then " (derived)"
    else if n = "regalloc.init_calls" then " (static)"
    else ""
  in
  List.iter (fun (n, u, v) -> Fmt.epr "  %-32s %18.6f %s%s@." n v u (label n)) metrics;
  List.iter
    (fun (n, _, v) ->
      if v < 0. && List.mem n derived then
        Fmt.epr "note: %s reads below 0: the part is under the noise of its base@." n)
    metrics;
  Fmt.epr "checks: %d attempted, %d failed@." !attempted !failed;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) !attempted !failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_num v) u)
          metrics))

(* Allocations the workload serves, each counted once. *)
let allocations sts =
  List.filter_map
    (fun st ->
      match st.op.mix with
      | Some m -> Option.map (fun b -> (m, b)) (allocation st.op (Option.get st.first))
      | None -> None)
    (Array.to_list sts)

(* Traffic results and the scaled host seconds they took: each
   allocation's replay beside its op, or a shard cell's own call. *)
let traffic sts =
  List.filter_map
    (fun st ->
      if st.op.cold then
        Option.map (fun r -> (r, median (List.map scaled st.serve_dts))) st.serve
      else
        Option.map
          (fun r -> (r, med_scaled st.untraced))
          (cell_replay st.op (Option.get st.first)))
    (Array.to_list sts)

let untraced_metrics ~setup ~peak sts =
  let l = Array.to_list sts in
  let times = List.map (fun st -> med_scaled st.untraced) l in
  let raw = List.map (fun st -> med_dt st.untraced) l in
  let allocs = allocations sts in
  let reps, sim_s = List.split (traffic sts) in
  let chain_served =
    List.fold_left
      (fun a st -> match st.first with Some (Chain_run c) -> a + c.Chain.ch_served | _ -> a)
      0 l
  in
  let sim_rate = float_of_int (isum (List.map (fun r -> r.sim_cycles) reps)) /. sum sim_s in
  let fsum f = float_of_int (isum (List.map f allocs)) in
  let setup_raw, setup_s = setup in
  Fmt.epr "host: reference median %.3f ms over %d calls; raw op_ms %.3f, pass_s %.4f, setup_s %.4f@."
    (1000. *. median !reference_dts) (List.length !reference_dts)
    (1000. *. geomean raw) (sum raw) setup_raw;
  [
    ("setup_s", "s", setup_s);
    ("op_ms", "ms", 1000. *. geomean times);
    ("pass_s", "s", sum times);
    ("sim_mcycles_per_s", "Mcycles/s", sim_rate /. 1e6);
    ("peak_heap_mb", "MB", peak);
    ("reg_demand", "regs", fsum (fun (_, b) -> (P.static_score b).P.sc_demand));
    ("gen_kcycles", "kcycles", fsum (fun (m, b) -> fst (gen_run m b.P.programs)) /. 1000.);
    ( "packets_served", "packets",
      float_of_int (isum (List.map (fun r -> r.served) reps) + chain_served) );
    ("critical_served", "packets", float_of_int (isum (List.map (fun r -> r.critical_served) reps)));
    ( "critical_p99_kcycles", "kcycles",
      float_of_int (isum (List.map (fun r -> r.critical_p99) reps)) /. 1000. );
  ]

(* [f] of each op's samples, summed over ops. *)
let per_op sts samples f =
  sum (List.map (fun st -> median (List.map f (samples st))) (Array.to_list sts))

let traced st = st.traced
let untraced st = st.untraced

let group_ms sts g =
  1000.
  *. geomean
       (List.filter_map
          (fun st -> if st.op.group = g then Some (med_dt st.untraced) else None)
          (Array.to_list sts))

(* 1 worker vs the pool, alternating, on one seed-chosen op. *)
let speedup ~pool ~seed sts =
  if Pool.jobs pool = 1 then 0.
  else
    let op = sts.(abs seed mod Array.length sts).op in
    let t1 = ref [] and tn = ref [] in
    for _ = 1 to min_samples do
      t1 := (snd (call ~pool:Pool.sequential op)).dt :: !t1;
      tn := (snd (call ~pool op)).dt :: !tn
    done;
    median !t1 /. median !tn

let traced_metrics ~pool ~seed ~changed sts =
  let ms key = 1000. *. per_op sts traced (layer key) in
  let cnt key = per_op sts traced (layer key) in
  let ratio a b = if cnt b = 0. then 0. else cnt a /. cnt b in
  let allocs = allocations sts in
  let chain_p99 =
    List.fold_left
      (fun a st ->
        match st.first with
        | Some (Chain_run { Chain.ch_e2e = Some p; _ }) -> a + p.Metrics.p99
        | _ -> a)
      0 (Array.to_list sts)
  in
  [
    ("fit_ms", "ms", group_ms sts "fit");
    ("squeeze_ms", "ms", group_ms sts "squeeze");
    ("moves", "count", float_of_int (isum (List.map (fun (_, b) -> b.P.moves) allocs)));
    ( "spilled_ranges", "count",
      float_of_int (isum (List.map (fun (_, (b : P.balanced)) -> isum b.P.spilled_ranges) allocs)) );
    ("chain_p99_kcycles", "kcycles", float_of_int chain_p99 /. 1000.);
    ("asm.parse_ms", "ms", ms "asm.parse");
    ("cfg.rename_ms", "ms", ms "cfg.rename");
    ("cfg.points_ms", "ms", ms "cfg.points");
    ("regalloc.context_ms", "ms", ms "regalloc.context");
    ("regalloc.context_nodes", "count", cnt "regalloc.context_nodes");
    ("regalloc.estimate_ms", "ms", ms "regalloc.estimate");
    ("regalloc.init_calls", "count", cnt "regalloc.init_calls");
    ("regalloc.bound_gap_regs", "regs", cnt "regalloc.bound_gap_regs");
    ("regalloc.inter_ms", "ms", ms "regalloc.inter");
    ("regalloc.search_ms", "ms", ms "regalloc.search");
    ("regalloc.demand_reduced_regs", "regs", cnt "regalloc.demand_reduced_regs");
    ("regalloc.infeasible_frac", "frac", ratio "regalloc.infeasible" "regalloc.searches");
    ( "regalloc.lb_over_nreg", "frac",
      ratio "regalloc.lb_regs" "regalloc.bounded_ops" /. float_of_int nreg );
    ("regalloc.chaitin_ms", "ms", ms "regalloc.chaitin");
    ("regalloc.chaitin_iterations", "count", cnt "regalloc.chaitin_iterations");
    ("regalloc.sra_ms", "ms", ms "regalloc.sra");
    ("regalloc.rewrite_ms", "ms", ms "regalloc.rewrite");
    ("regalloc.verify_ms", "ms", ms "regalloc.verify");
    ( "core.race_ms", "ms",
      1000.
      *. sum
           (List.filter_map
              (fun st -> if st.op.group = "race" then Some (med_dt st.untraced) else None)
              (Array.to_list sts)) );
  ]
  @ List.map
      (fun f -> ("core.entrant." ^ f ^ "_ms", "ms", ms ("core.entrant." ^ f)))
      families
  @ [
      ("core.entrant_fail_frac", "frac", ratio "core.entrant_failures" "core.entrants");
      ("core.probe_ms", "ms", ms "core.probe");
      ("core.cache_hits", "count", per_op sts untraced (fun s -> float_of_int s.hits));
      ("core.cache_misses", "count", per_op sts untraced (fun s -> float_of_int s.misses));
      ("sim.run_ms", "ms", ms "sim.run");
      ("sim.cycles", "cycles", cnt "sim.cycles");
      ("sim.ipc", "instr/cycle", ratio "sim.instrs" "sim.cycles");
      ("traffic.dispatch_ms", "ms", ms "traffic.dispatch");
      ("traffic.served", "packets", cnt "traffic.served");
      ("traffic.dropped", "packets", cnt "traffic.dropped");
      ("chip.shard_calm_ms", "ms", ms "chip.shard_calm");
      ("chip.shard_chaos_ms", "ms", ms "chip.shard_chaos");
      ("chip.chain_ms", "ms", ms "chip.chain");
      ("chip.offered", "packets", cnt "chip.offered");
      ("chip.served", "packets", cnt "chip.served");
      ("chip.dropped", "packets", cnt "chip.dropped");
      ("chip.residual", "packets", cnt "chip.residual");
      ("par.steals", "count", per_op sts untraced (fun s -> float_of_int s.steals));
      ("par.speedup_x", "x", speedup ~pool ~seed sts);
      ("gc.minor_mwords", "Mwords", per_op sts untraced (fun s -> s.minor) /. 1e6);
      ( "gc.major_collections", "count",
        per_op sts untraced (fun s -> float_of_int s.majors) );
      ( "trace.overhead_ms", "ms",
        1000. *. sum (List.map (fun st -> med_dt st.traced -. med_dt st.untraced) (Array.to_list sts)) );
      ("digests.changed", "count", float_of_int changed);
    ]

(* ------------------------------------------------------------------ *)

let () =
  (* A 32 MB minor heap, and a full major collection before every
     call: with the default 2 MB heap, promotion and major slices left
     over from the previous op moved the same call's time by a quarter. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 };
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let record_mode = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
      ("--record-digests", Arg.Set record_mode, " write the fingerprint baseline");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !record_mode then (record_digests ~seed:!seed; exit 0);
  let w =
    match List.find_opt (fun w -> w.wname = !workload) workloads with
    | Some w when !trace = 0 || !trace = 1 -> w
    | _ ->
      Fmt.epr "usage: --workload %s --trace 0|1@."
        (String.concat "|" (List.map (fun w -> w.wname) workloads));
      exit 2
  in
  let pool = make_pool w.jobs in
  (* on fabric, the set-up's allocations warm the cache *)
  let ops, first_setup = set_up w ~pool ~seed:!seed in
  Fmt.epr "%s: seed %d, %d ops, %d workers, first set-up %.4f s@." w.wname !seed
    (List.length ops) w.jobs (fst first_setup);
  let sts =
    Array.of_list
      (List.map
         (fun op ->
           { op; first = None; untraced = []; traced = []; serve_dts = []; serve = None })
         ops)
  in
  let traced = !trace = 1 in
  let peak =
    passes ~seed:!seed ~seconds:!seconds ~traced sts (fun st ->
        if traced then begin
          record st ~traced:false (call ~pool st.op);
          record st ~traced:true (call ~pool ?first:st.first st.op)
        end
        else begin
          let (o, s), host = bracketed (fun () -> call ~pool st.op) in
          record st ~traced:false (o, { s with host });
          serve st ~host
        end)
  in
  checks_once ~pool ~seed:!seed sts;
  print_table sts;
  let changed = changed_digests w.wname (digest_lines sts) in
  if traced then begin
    (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
    let path = Filename.concat out_dir (Fmt.str "trace-%s-seed%d.json" w.wname !seed) in
    Trace.write path;
    print_layers sts;
    Fmt.epr "trace: %s@." path;
    print_result (traced_metrics ~pool ~seed:!seed ~changed sts)
  end
  else begin
    let n, setup_raw, setup_s = time_setups w ~pool ~seed:!seed first_setup in
    Fmt.epr "set-up: median %.4f s of %d@." setup_raw n;
    print_result (untraced_metrics ~setup:(setup_raw, setup_s) ~peak sts)
  end

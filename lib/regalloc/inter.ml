(* Inter-thread register allocation (paper §6, Figure 8).

   Each thread starts at its estimated upper bounds (MaxPR, MaxR). While
   the pooled requirement Σ PRᵢ + max SRᵢ exceeds the register file, the
   balancer evaluates every legal single-step reduction — one thread's PR,
   or the SR of all threads currently at the maximum — through the
   intra-thread allocator, and commits the cheapest. Shared registers are
   pooled, so only the maximum SR counts; private registers add up.

   Every thread carries its {!Intra.state}: a committed step moves one
   thread to a child state and leaves the others where they were, so the
   next round's candidates on unchanged threads are slot reads, not new
   colour eliminations. *)

open Npra_ir

type thread_alloc = {
  name : string;
  prog : Prog.t;
  ctx : Context.t;
  bounds : Estimate.bounds;
  pr : int;
  sr : int;
  state : Intra.state;
}

let cost_of t = Intra.cost t.state

type t = {
  threads : thread_alloc array;
  nreg : int;
  sgr : int;  (* = max SR *)
}

let demand threads =
  let total_pr = Array.fold_left (fun acc t -> acc + t.pr) 0 threads in
  let max_sr = Array.fold_left (fun acc t -> max acc t.sr) 0 threads in
  total_pr + max_sr

let total_moves t =
  Array.fold_left (fun acc th -> acc + cost_of th) 0 t.threads

type error = [ `Infeasible of string ]

let init_thread prog =
  let ctx = Context.create prog in
  let ctx, bounds = Estimate.run ctx in
  let { Estimate.max_pr; max_r; _ } = bounds in
  {
    name = prog.Prog.name;
    prog;
    ctx;
    bounds;
    pr = max_pr;
    sr = max_r - max_pr;
    state = Intra.root ctx ~pr:max_pr ~r:max_r;
  }

let with_state th state =
  let pr = Intra.pr state in
  { th with ctx = Intra.ctx state; pr; sr = Intra.r state - pr; state }

(* A candidate single-step reduction: the updated thread records and the
   total move-cost increase, scaled by the owning thread's weight so a
   critical thread's reductions look expensive and the greedy loop
   shifts moves onto its co-residents. Weight 1 everywhere reproduces
   the paper's unweighted Figure-8 behaviour exactly. *)
type candidate = { delta : int; apply : thread_alloc array }

(* Thread [i] moved to its [step] child; the guards against the lower
   bounds live in the step itself. *)
let step_candidate ~w threads i step =
  let th = threads.(i) in
  Option.map
    (fun red ->
      let apply = Array.copy threads in
      apply.(i) <- with_state th red;
      { delta = w i * (Intra.cost red - cost_of th); apply })
    (step th.state)

let pr_candidate ~w threads i = step_candidate ~w threads i Intra.reduce_pr

let demote_candidate ~w threads i =
  (* Weak PR-step: only profitable when this thread's SR is below the
     pooled maximum, so growing it by one does not grow SGR. *)
  let max_sr = Array.fold_left (fun acc t -> max acc t.sr) 0 threads in
  if threads.(i).sr >= max_sr then None
  else step_candidate ~w threads i Intra.demote_pr

let sr_candidate ~w threads =
  let max_sr = Array.fold_left (fun acc t -> max acc t.sr) 0 threads in
  if max_sr = 0 then None
  else begin
    let apply = Array.copy threads in
    let delta = ref 0 in
    let ok = ref true in
    Array.iteri
      (fun j th ->
        if !ok && th.sr = max_sr then
          match Intra.reduce_sr th.state with
          | None -> ok := false
          | Some red ->
            delta := !delta + (w j * (Intra.cost red - cost_of th));
            apply.(j) <- with_state th red)
      threads;
    if !ok then Some { delta = !delta; apply } else None
  end

let candidates ~w threads =
  let n = Array.length threads in
  let prs = List.init n (fun i -> pr_candidate ~w threads i) in
  let demotes = List.init n (fun i -> demote_candidate ~w threads i) in
  List.filter_map Fun.id ((sr_candidate ~w threads :: prs) @ demotes)

let pick_min = function
  | [] -> None
  | c :: cs ->
    Some (List.fold_left (fun best c -> if c.delta < best.delta then c else best) c cs)

(* Stop conditions: [`Fit nreg] stops once the pooled demand fits;
   [`Zero_cost] keeps reducing while some reduction is free (used for the
   paper's Figure 14 experiment). *)
let rec reduce_loop ~w threads stop =
  match stop with
  | `Fit nreg when demand threads <= nreg -> Ok threads
  | `Fit nreg -> (
    match pick_min (candidates ~w threads) with
    | Some c -> reduce_loop ~w c.apply (`Fit nreg)
    | None ->
      Error
        (`Infeasible
          (Fmt.str
             "register demand %d exceeds %d and no thread can be reduced \
              further"
             (demand threads) nreg)))
  | `Zero_cost -> (
    match pick_min (candidates ~w threads) with
    | Some c when c.delta <= 0 -> reduce_loop ~w c.apply `Zero_cost
    | Some _ | None -> Ok threads)

(* The result keeps each thread's final point but none of the step tree
   below it: the memo lives only as long as the search that built it. *)
let of_threads ~nreg threads =
  let sgr = Array.fold_left (fun acc t -> max acc t.sr) 0 threads in
  let threads =
    Array.map (fun t -> { t with state = Intra.detach t.state }) threads
  in
  { threads; nreg; sgr }

(* Per-thread move-cost weights: missing entries default to 1, negative
   entries clamp to 0 (a zero weight marks a thread whose moves are
   considered free — a sacrificial co-resident). *)
let weight_fn weights n =
  let a = Array.make n 1 in
  List.iteri (fun i v -> if i < n then a.(i) <- max 0 v) weights;
  fun i -> a.(i)

let roots_of roots progs =
  Array.of_list
    (match roots with Some ths -> ths | None -> List.map init_thread progs)

let allocate ?(weights = []) ?roots ~nreg progs =
  let threads = roots_of roots progs in
  let w = weight_fn weights (Array.length threads) in
  match reduce_loop ~w threads (`Fit nreg) with
  | Ok threads -> Ok (of_threads ~nreg threads)
  | Error e -> Error e

let tighten_zero_cost ?roots ~nreg progs =
  let threads = roots_of roots progs in
  let w = weight_fn [] (Array.length threads) in
  match reduce_loop ~w threads `Zero_cost with
  | Ok threads -> Ok (of_threads ~nreg threads)
  | Error e -> Error e

let pp ppf t =
  Fmt.pf ppf "Nreg=%d SGR=%d demand=%d@." t.nreg t.sgr (demand t.threads);
  Array.iter
    (fun th ->
      Fmt.pf ppf "  %-16s PR=%-3d SR=%-3d moves=%-4d (%a)@." th.name th.pr
        th.sr (cost_of th) Estimate.pp_bounds th.bounds)
    t.threads

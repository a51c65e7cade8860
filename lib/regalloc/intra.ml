(* Intra-thread register allocation (paper §7, Figure 10).

   The paper's Reduce-PR and Reduce-SR invocations instantiate one
   engine: {e eliminate a colour [c]}, recolouring the nodes that bear
   it. The engine runs in two scopes:

   - [`All]: colour [c] disappears entirely — a strong PR-step
     [(PR-1, SR, R-1)] or an SR-step [(PR, SR-1, R-1)];
   - [`Boundary]: colour [c] is only removed from boundary nodes and
     demoted to a shared-only colour — the weak PR-step
     [(PR-1, SR+1, R)], which is how private registers are converted
     into shared ones without touching internal live ranges.

   Three escalating tactics per node:

   1. free recolouring — some allowed colour is unused by all neighbours
      (the paper's NCN test);
   2. carve-assisted recolouring — the blockers of a candidate colour are
      split away from the node: for a boundary node the conflicting NSRs
      are excluded whole (Figures 11/12), for an internal node only the
      overlap with the blockers is carved (Figure 13); the carved piece
      keeps colour [c] and, in [`All] scope, is re-queued strictly
      smaller;
   3. fragmentation — the node is exploded into singleton segments; each
      singleton recolours freely or, as a last resort, its gap is
      normalised: every occupant of the gap is fragmented and the gap is
      recoloured from scratch (crossing owners into the private palette
      first). Under the lower-bound guards ([pr' >= RegPCSBmax],
      [r' >= RegPmax] for the post-elimination palette) normalisation
      always succeeds.

   Every tactic strictly shrinks the territory the queue still has to
   recolour, so the engine terminates; the guards make it total, which is
   what lets the inter-thread allocator drive any thread down to its
   lower bounds (the paper's Lemma 1). *)

open Npra_cfg
module IntSet = Points.IntSet

let min_pr ctx = Points.reg_pressure_csb_max (Context.points ctx)
let min_r ctx = Points.reg_pressure_max (Context.points ctx)

let lowest_in allowed used =
  List.find_opt (fun c -> not (IntSet.mem c used)) allowed

exception Infeasible

(* Normalise one gap: fragment every occupant, then recolour all the
   singletons at the gap from scratch — crossing owners get distinct
   private colours first, everything else fills the remaining palette. *)
let normalize_gap ctx gap ~ballowed ~iallowed =
  let occupant_ids ctx =
    List.map (fun n -> n.Context.id) (Context.occupants ctx gap)
  in
  let ctx =
    List.fold_left
      (fun ctx id ->
        let ctx, _ids = Context.fragment ctx id in
        ctx)
      ctx (occupant_ids ctx)
  in
  (* After fragmentation every occupant of [gap] is a singleton {gap}. *)
  let occ = Context.occupants ctx gap in
  let crossing, plain = List.partition Context.is_boundary occ in
  let assign ctx used n allowed =
    (* besides the colours already assigned at this gap, avoid the
       colours of the singleton's move-hazard neighbours (they live at
       other gaps and keep their colours) *)
    let used' =
      List.fold_left
        (fun acc m ->
          if m.Context.color > 0 then IntSet.add m.Context.color acc else acc)
        used
        (Context.hazard_neighbors ctx (Context.node ctx n.Context.id))
    in
    match lowest_in allowed used' with
    | Some c -> (Context.set_color ctx n.Context.id c, IntSet.add c used)
    | None -> raise Infeasible
  in
  let ctx, used =
    List.fold_left
      (fun (ctx, used) n -> assign ctx used n ballowed)
      (ctx, IntSet.empty) crossing
  in
  let ctx, _used =
    List.fold_left
      (fun (ctx, used) n -> assign ctx used n iallowed)
      (ctx, used) plain
  in
  ctx

(* Carve the blockers of colour [c'] away from node [id]. Returns the
   gaps to carve, or None when carving cannot free the node. *)
let carve_set ctx id c' =
  let n = Context.node ctx id in
  let blockers =
    List.filter (fun m -> m.Context.color = c') (Context.neighbors ctx n)
  in
  if blockers = [] then Some IntSet.empty
  else begin
    let shared b = IntSet.inter n.Context.gaps b.Context.gaps in
    let sub =
      if Context.is_boundary n then begin
        (* NSR exclusion: every region where a blocker overlaps [n] is
           excluded whole. Crossing gaps (region-less) are never carved. *)
        let regions = Context.regions ctx in
        let conflict_regions =
          List.fold_left
            (fun acc b -> IntSet.union acc (Nsr.regions_of_gaps regions (shared b)))
            IntSet.empty blockers
        in
        IntSet.filter
          (fun g ->
            match Nsr.region_of_gap regions g with
            | Some r -> IntSet.mem r conflict_regions
            | None -> false)
          n.Context.gaps
      end
      else
        (* Overlap exclusion: carve exactly the gaps shared with blockers. *)
        List.fold_left (fun acc b -> IntSet.union acc (shared b)) IntSet.empty
          blockers
    in
    if IntSet.is_empty sub || IntSet.equal sub n.Context.gaps then None
    else
      (* The kept part must actually be free of the blockers. *)
      let kept = IntSet.diff n.Context.gaps sub in
      let still_blocked =
        List.exists
          (fun b -> not (IntSet.is_empty (IntSet.inter kept b.Context.gaps)))
          blockers
      in
      if still_blocked then None else Some sub
  end

(* Recolour one singleton segment (used by the fragmentation tactic). *)
let recolor_singleton ctx id ~ballowed ~iallowed =
  let n = Context.node ctx id in
  let allowed = if Context.is_boundary n then ballowed else iallowed in
  let used = Context.neighbor_colors ctx n in
  match lowest_in allowed used with
  | Some c -> Context.set_color ctx id c
  | None ->
    let gap =
      match IntSet.choose_opt n.Context.gaps with
      | Some g -> g
      | None -> raise Infeasible
    in
    normalize_gap ctx gap ~ballowed ~iallowed

type scope = [ `All | `Boundary ]

let eliminate_color ?(scope = `All) ctx ~c ~pr ~r =
  let range lo hi = List.init (max 0 (hi - lo + 1)) (fun i -> lo + i) in
  let ballowed = List.filter (fun k -> k <> c) (range 1 pr) in
  let iallowed =
    match scope with
    | `All -> List.filter (fun k -> k <> c) (range 1 r)
    | `Boundary -> range 1 r  (* internal nodes may keep / take [c] *)
  in
  let in_scope n =
    match scope with `All -> true | `Boundary -> Context.is_boundary n
  in
  let queue = Queue.create () in
  List.iter
    (fun n ->
      if n.Context.color = c && in_scope n then Queue.add n.Context.id queue)
    (Context.nodes ctx);
  let ctx = ref ctx in
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    (* The node may have been recoloured or normalised meanwhile. *)
    let n = try Some (Context.node !ctx id) with Not_found -> None in
    match n with
    | Some n when n.Context.color = c && in_scope n ->
      let allowed = if Context.is_boundary n then ballowed else iallowed in
      let used = Context.neighbor_colors !ctx n in
      (match lowest_in allowed used with
      | Some c' -> ctx := Context.set_color !ctx id c'
      | None -> (
        (* Carve-assisted: pick the candidate colour whose blockers
           carve away the smallest piece. *)
        let candidates =
          List.filter_map
            (fun c' ->
              match carve_set !ctx id c' with
              | Some sub when not (IntSet.is_empty sub) ->
                Some (IntSet.cardinal sub, c', sub)
              | Some _ | None -> None)
            allowed
        in
        let by_size (ka, ca, _) (kb, cb, _) =
          match Int.compare ka kb with
          | 0 -> Int.compare ca cb
          | cmp -> cmp
        in
        match List.sort by_size candidates with
        | (_, c', sub) :: _ ->
          let ctx', piece = Context.carve !ctx id sub in
          ctx := Context.set_color ctx' id c';
          if scope = `All then Queue.add piece.Context.id queue
        | [] ->
          (* Fragmentation fallback. *)
          let ctx', ids = Context.fragment !ctx id in
          ctx := ctx';
          List.iter
            (fun sid ->
              match Context.node !ctx sid with
              | m when m.Context.color = c && in_scope m ->
                ctx := recolor_singleton !ctx sid ~ballowed ~iallowed
              | _ -> ()
              | exception Not_found -> ())
            ids))
    | Some _ | None -> ()
  done;
  (* Splitting near an already-coloured definition can create a move
     hazard retroactively (the definition clobbers a register a fresh
     move still reads). Repair: recolour the definition's segment, or
     kill the move by aligning the outgoing segment with its sibling, or
     recolour the outgoing segment — each choice validated against the
     full (hazard-aware) neighbourhood. *)
  let repair_rounds = ref 0 in
  let rec repair () =
    match Context.hazard_violations !ctx with
    | [] -> ()
    | violations ->
      incr repair_rounds;
      if !repair_rounds > 10 then raise Infeasible;
      List.iter
        (fun (d, s) ->
          let d = Context.node !ctx d.Context.id
          and s = Context.node !ctx s.Context.id in
          if d.Context.color = s.Context.color then begin
            let try_recolor n =
              let allowed =
                if Context.is_boundary n then ballowed else iallowed
              in
              let used = Context.neighbor_colors !ctx n in
              match lowest_in allowed used with
              | Some c' ->
                ctx := Context.set_color !ctx n.Context.id c';
                true
              | None -> false
            in
            (* align the outgoing segment with its sibling: the move
               disappears, and with it the hazard *)
            let try_align () =
              let sibling_colors =
                IntSet.fold
                  (fun p acc ->
                    match Context.seg !ctx s.Context.vreg (p + 1) with
                    | Some other when other <> s.Context.id ->
                      let c = (Context.node !ctx other).Context.color in
                      if c > 0 then IntSet.add c acc else acc
                    | _ -> acc)
                  s.Context.gaps IntSet.empty
              in
              let allowed =
                if Context.is_boundary s then ballowed else iallowed
              in
              let used = Context.neighbor_colors !ctx s in
              match
                List.find_opt
                  (fun c ->
                    IntSet.mem c sibling_colors && not (IntSet.mem c used))
                  allowed
              with
              | Some c ->
                ctx := Context.set_color !ctx s.Context.id c;
                true
              | None -> false
            in
            if not (try_recolor d) then
              if not (try_align ()) then
                if not (try_recolor s) then raise Infeasible
          end)
        violations;
      repair ()
  in
  repair ();
  (* Compact the palette. In [`All] scope colour [c] is gone: colours
     above shift down. In [`Boundary] scope [c] became shared-only: it
     moves to the top of the palette, the rest compact. *)
  let perm =
    match scope with
    | `All -> fun k -> if k > c then k - 1 else k
    | `Boundary -> fun k -> if k = c then r else if k > c then k - 1 else k
  in
  let ctx = Context.renumber !ctx perm in
  Context.coalesce ctx

(* The search state: a context at (pr, r) plus one once-filled slot per
   single step. A step's result is a pure function of its state, so a
   slot is written once, by whichever domain wins its compare-and-set; a
   domain that loses the race computed the same child and returns the
   published one. The paper's balancer
   and the symmetric sweep re-ask the same states for the same steps
   (every greedy round re-evaluates every thread; SRA targets share path
   prefixes); the slots turn those repeats into reads. Children hang off
   their parent only, so the memo lives exactly as long as the root the
   caller holds. *)
type state = {
  ctx : Context.t;
  pr : int;
  r : int;
  cost : int Atomic.t;
      (* move instructions implied by [ctx]; -1 until a root is first
         asked, so a search that never steps never counts them *)
  min_pr : int;
  min_r : int;
  strong : slot Atomic.t;
  demote : slot Atomic.t;
  shared : slot Atomic.t;
}

and slot = Unknown | Known of state option

let make ctx ~pr ~r ~cost ~min_pr ~min_r =
  {
    ctx; pr; r; min_pr; min_r;
    cost = Atomic.make cost;
    strong = Atomic.make Unknown;
    demote = Atomic.make Unknown;
    shared = Atomic.make Unknown;
  }

let root ctx ~pr ~r =
  make ctx ~pr ~r ~cost:(-1) ~min_pr:(min_pr ctx) ~min_r:(min_r ctx)

let cost s =
  match Atomic.get s.cost with
  | -1 ->
    (* racing domains count the same moves *)
    let c = Context.move_count s.ctx in
    Atomic.set s.cost c;
    c
  | c -> c

let detach s =
  make s.ctx ~pr:s.pr ~r:s.r ~cost:(Atomic.get s.cost) ~min_pr:s.min_pr
    ~min_r:s.min_r

let ctx s = s.ctx
let pr s = s.pr
let r s = s.r

let rec memo slot compute =
  match Atomic.get slot with
  | Known child -> child
  | Unknown ->
    ignore (Atomic.compare_and_set slot Unknown (Known (compute ())));
    memo slot compute

(* Evaluates colour eliminations lazily, keeping the cheapest; stops
   early when an elimination adds no moves at all (nothing can beat it,
   since the cost function is the total move count and eliminations never
   remove pre-existing crossings). The winner becomes a child state at
   [(pr', r')]. *)
let try_colors ?scope s colors ~pr' ~r' =
  let floor = cost s in
  let rec go best = function
    | [] -> best
    | c :: rest -> (
      match eliminate_color ?scope s.ctx ~c ~pr:s.pr ~r:s.r with
      | exception Infeasible -> go best rest
      | ctx' ->
        let cost = Context.move_count ctx' in
        let best =
          match best with
          | Some (_, b) when b <= cost -> best
          | Some _ | None -> Some (ctx', cost)
        in
        if cost <= floor then best else go best rest)
  in
  Option.map
    (fun (ctx, cost) ->
      make ctx ~pr:pr' ~r:r' ~cost ~min_pr:s.min_pr ~min_r:s.min_r)
    (go None colors)

let private_colors pr = List.init pr (fun i -> i + 1)
let shared_colors pr r = List.init (max 0 (r - pr)) (fun i -> pr + 1 + i)

let reduce_pr s =
  (* Strong PR-step: (PR-1, SR, R-1). *)
  memo s.strong (fun () ->
      if s.pr - 1 < s.min_pr || s.r - 1 < s.min_r then None
      else try_colors s (private_colors s.pr) ~pr':(s.pr - 1) ~r':(s.r - 1))

let demote_pr s =
  (* Weak PR-step: (PR-1, SR+1, R) — a private colour becomes shared. *)
  memo s.demote (fun () ->
      if s.pr - 1 < s.min_pr then None
      else
        try_colors ~scope:`Boundary s (private_colors s.pr) ~pr':(s.pr - 1)
          ~r':s.r)

let reduce_sr s =
  (* SR-step: (PR, SR-1, R-1). *)
  memo s.shared (fun () ->
      if s.r - 1 < s.min_r || s.r <= s.pr then None
      else try_colors s (shared_colors s.pr s.r) ~pr':s.pr ~r':(s.r - 1))

let reduce_to s ~target_pr ~target_sr =
  (* Drives the state to exactly (target_pr, target_sr), choosing the
     cheapest applicable step each time:
       strong PR   (pr-1, sr)    when pr > target and sr is not short
       demote PR   (pr-1, sr+1)  when pr > target and sr must grow
       reduce SR   (pr, sr-1)    when sr > target *)
  let rec go s =
    let sr = s.r - s.pr in
    if s.pr = target_pr && sr = target_sr then Some s
    else begin
      let step_strong =
        if s.pr > target_pr && sr >= target_sr then reduce_pr s else None
      in
      let step_demote =
        if s.pr > target_pr && sr < target_sr then demote_pr s else None
      in
      let step_sr = if sr > target_sr then reduce_sr s else None in
      match
        List.sort
          (fun a b -> Int.compare (cost a) (cost b))
          (List.filter_map Fun.id [ step_strong; step_demote; step_sr ])
      with
      | [] -> None
      | child :: _ -> go child
    end
  in
  if
    target_pr < s.min_pr
    || target_pr + target_sr < s.min_r
    || target_pr > s.pr
    || target_sr > (s.r - s.pr) + (s.pr - target_pr)
  then None
  else go s

(* The paper's Lemma 1 makes (MinPR, MinR) always reachable on the IXP,
   whose memory reads land in transfer registers. Our machine writes load
   results into GPRs directly, which adds write-back move hazards
   (see {!Context.hazard_neighbors}); in rare shapes they push the floor
   up by a register. [reduce_to_best] finds the nearest reachable point:
   candidates at increasing extra register count, preferring extra shared
   registers over extra private ones. Every candidate walks from the same
   state, so their common prefixes are stepped once. *)
let reduce_to_best s ~target_pr ~target_sr =
  let pr = s.pr and sr0 = s.r - s.pr in
  let max_extra = max 0 (pr + sr0 - (target_pr + target_sr)) in
  let rec try_extra extra =
    if extra > max_extra then None
    else begin
      (* all (tpr, tsr) splits of the total [target + extra], smallest
         private count first (the paper's objective) *)
      let total = target_pr + target_sr + extra in
      let rec try_pr tpr =
        if tpr > pr then None
        else begin
          let tsr = total - tpr in
          if tsr < 0 || tsr > sr0 + (pr - tpr) then try_pr (tpr + 1)
          else
            match reduce_to s ~target_pr:tpr ~target_sr:tsr with
            | Some red -> Some (red, tpr, tsr)
            | None -> try_pr (tpr + 1)
        end
      in
      match try_pr target_pr with
      | Some x -> Some x
      | None -> try_extra (extra + 1)
    end
  in
  try_extra 0

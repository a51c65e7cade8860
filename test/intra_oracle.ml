(* Unmemoised Intra steps: the test oracle for the step tree.

   The step evaluation as it stood before {!Npra_regalloc.Intra.state}
   memoised it: every step re-runs the colour eliminations from the bare
   context, and the greedy walk to a target recomputes every step on its
   path. Slow and obviously pure, so the memoised tree must agree with it
   state for state. *)

open Npra_regalloc

type reduction = { ctx : Context.t; cost : int }

(* Evaluates colour eliminations lazily, keeping the cheapest; stops
   early when an elimination adds no moves at all. *)
let try_colors ?scope ctx colors ~pr ~r =
  let floor = Context.move_count ctx in
  let rec go best = function
    | [] -> best
    | c :: rest -> (
      match Intra.eliminate_color ?scope ctx ~c ~pr ~r with
      | exception Intra.Infeasible -> go best rest
      | ctx' ->
        let cost = Context.move_count ctx' in
        let best =
          match best with
          | Some b when b.cost <= cost -> Some b
          | Some _ | None -> Some { ctx = ctx'; cost }
        in
        if cost <= floor then best else go best rest)
  in
  go None colors

let private_colors pr = List.init pr (fun i -> i + 1)
let shared_colors pr r = List.init (max 0 (r - pr)) (fun i -> pr + 1 + i)

let reduce_pr ctx ~pr ~r =
  if pr - 1 < Intra.min_pr ctx || r - 1 < Intra.min_r ctx then None
  else try_colors ctx (private_colors pr) ~pr ~r

let demote_pr ctx ~pr ~r =
  if pr - 1 < Intra.min_pr ctx then None
  else try_colors ~scope:`Boundary ctx (private_colors pr) ~pr ~r

let reduce_sr ctx ~pr ~r =
  if r - 1 < Intra.min_r ctx || r <= pr then None
  else try_colors ctx (shared_colors pr r) ~pr ~r

let reduce_to ctx ~pr ~r ~target_pr ~target_sr =
  let rec go ctx pr sr =
    if pr = target_pr && sr = target_sr then
      Some { ctx; cost = Context.move_count ctx }
    else begin
      let r = pr + sr in
      let step_strong =
        if pr > target_pr && sr >= target_sr then reduce_pr ctx ~pr ~r
        else None
      in
      let step_demote =
        if pr > target_pr && sr < target_sr then demote_pr ctx ~pr ~r
        else None
      in
      let step_sr = if sr > target_sr then reduce_sr ctx ~pr ~r else None in
      let cands =
        List.filter_map
          (fun (kind, c) -> Option.map (fun red -> (kind, red)) c)
          [ (`Strong, step_strong); (`Demote, step_demote); (`Sr, step_sr) ]
      in
      match
        List.sort (fun (_, a) (_, b) -> Int.compare a.cost b.cost) cands
      with
      | [] -> None
      | (`Strong, red) :: _ -> go red.ctx (pr - 1) sr
      | (`Demote, red) :: _ -> go red.ctx (pr - 1) (sr + 1)
      | (`Sr, red) :: _ -> go red.ctx pr (sr - 1)
    end
  in
  if
    target_pr < Intra.min_pr ctx
    || target_pr + target_sr < Intra.min_r ctx
    || target_pr > pr
    || target_sr > (r - pr) + (pr - target_pr)
  then None
  else go ctx pr (r - pr)

let reduce_to_best ctx ~pr ~r ~target_pr ~target_sr =
  let sr0 = r - pr in
  let max_extra = max 0 (pr + sr0 - (target_pr + target_sr)) in
  let rec try_extra extra =
    if extra > max_extra then None
    else begin
      let total = target_pr + target_sr + extra in
      let rec try_pr tpr =
        if tpr > pr then None
        else begin
          let tsr = total - tpr in
          if tsr < 0 || tsr > sr0 + (pr - tpr) then try_pr (tpr + 1)
          else
            match reduce_to ctx ~pr ~r ~target_pr:tpr ~target_sr:tsr with
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

(** Intra-thread register allocation (paper §7, Figure 10).

    The paper's Reduce-PR and Reduce-SR invocations both instantiate one
    engine — {!eliminate_color} — that removes a colour from the whole
    context by recolouring, NSR exclusion / overlap carving, and as a
    last resort fragmentation plus per-gap normalisation. The engine is
    total whenever the post-elimination palette respects the lower bounds
    ([pr-1 >= RegPCSBmax] for PR-steps, [r-1 >= RegPmax] for either),
    which is what lets the inter-thread allocator drive any thread down
    to its bounds (the paper's Lemma 1). *)

exception Infeasible

val min_pr : Context.t -> int
(** RegPCSBmax of the underlying program. *)

val min_r : Context.t -> int
(** RegPmax of the underlying program. *)

type scope = [ `All | `Boundary ]

val eliminate_color :
  ?scope:scope -> Context.t -> c:int -> pr:int -> r:int -> Context.t
(** Removes colour [c]: in scope [`All] from every node (strong step,
    palette compacts to [r-1] colours); in scope [`Boundary] only from
    boundary nodes, demoting [c] to a shared-only colour (it moves to
    the top of the palette, [r] unchanged).
    @raise Infeasible when a gap cannot be normalised — impossible under
    the lower-bound guards. *)

(** {2 The step tree}

    A {!state} is one thread's context at [(pr, r)] colours plus three
    once-filled slots, one per single step: strong PR, demote PR and SR.
    Each step's result is a child state, computed on first request and
    read from the slot afterwards, so a search that asks the same state
    for the same step again (the balancer re-evaluating an unchanged
    thread, SRA targets sharing a path prefix, portfolio entrants
    sharing roots) pays for it once.

    Lifetime: children are reachable only from their parent, so the memo
    lives exactly as long as the caller holds the root. There is no
    global table.

    Domain safety: contexts are immutable and each slot is an [Atomic]
    filled by compare-and-set. Two domains racing on an empty slot both
    compute the same child (a step is a pure function of its state); one
    publishes it and both return the published one. Results are therefore
    identical at any number of workers. *)

type state

val root : Context.t -> pr:int -> r:int -> state
(** The state of a coloured context at [(pr, r)], with empty slots. *)

val detach : state -> state
(** The same point with empty slots, so a result that outlives its
    search keeps none of the tree below it. *)

val ctx : state -> Context.t

val cost : state -> int
(** Move instructions implied by the state's context; a root counts them
    on first request. *)

val pr : state -> int
val r : state -> int

val reduce_pr : state -> state option
(** Best strong PR-step [(PR-1, SR, R-1)]: tries every private colour,
    keeps the cheapest elimination. [None] below the lower bounds.
    Memoised: a second call returns the physically equal child. *)

val demote_pr : state -> state option
(** Best weak PR-step [(PR-1, SR+1, R)]: a private colour becomes
    shared-only. [None] below [RegPCSBmax]. Memoised. *)

val reduce_sr : state -> state option
(** Best SR-step [(PR, SR-1, R-1)]: tries every shared colour. [None]
    below the lower bounds. Memoised. *)

val reduce_to : state -> target_pr:int -> target_sr:int -> state option
(** Walks the step tree from the state to exactly
    [(target_pr, target_sr)] colours, taking the cheapest applicable
    step greedily. Returns the state itself when it is already there. *)

val reduce_to_best :
  state -> target_pr:int -> target_sr:int -> (state * int * int) option
(** Like {!reduce_to}, but when the exact target is unreachable (the
    write-back move hazards of a GPR-targeting load can push the floor
    one register above the paper's Lemma 1) returns the nearest reachable
    point [(state, pr, sr)], preferring extra shared registers. *)

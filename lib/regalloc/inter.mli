(** Inter-thread register allocation (paper §6, Figure 8).

    Balances register allocation across the threads of one processing
    unit: every thread starts at its estimated upper bounds and the
    balancer greedily commits the cheapest single-step reduction — one
    thread's private count, or the shared count of all threads at the
    current maximum — until the pooled demand [Σ PRᵢ + max SRᵢ] fits the
    register file.

    Each thread carries its {!Intra.state}, so a round re-evaluating a
    thread that the previous round did not change reads the memoised
    steps instead of recomputing them. *)

open Npra_ir

type thread_alloc = {
  name : string;
  prog : Prog.t;
  ctx : Context.t;  (** final colouring for this thread *)
  bounds : Estimate.bounds;
  pr : int;  (** private registers assigned *)
  sr : int;  (** shared registers needed *)
  state : Intra.state;
      (** the step-tree node at [(pr, pr + sr)]; its context is [ctx] *)
}

type t = {
  threads : thread_alloc array;
  nreg : int;
  sgr : int;  (** globally shared registers: [max SRᵢ] *)
}

type error = [ `Infeasible of string ]

val demand : thread_alloc array -> int
(** [Σ PRᵢ + max SRᵢ], the pooled register requirement. *)

val total_moves : t -> int

val cost_of : thread_alloc -> int

val init_thread : Prog.t -> thread_alloc
(** Estimation only: the thread at its upper bounds, zero moves. The
    program must be in web form ({!Npra_cfg.Webs.rename}). Its [state]
    is the root of the thread's step tree: callers that run several
    searches on the same threads pass the same roots to share it. *)

val with_state : thread_alloc -> Intra.state -> thread_alloc
(** The thread moved to another node of its step tree. *)

val of_threads : nreg:int -> thread_alloc array -> t
(** The allocation of threads already at their final points: [sgr] is
    their maximum SR, and every state is detached ({!Intra.detach}) so
    the result holds none of the step trees it was searched in. *)

val allocate :
  ?weights:int list ->
  ?roots:thread_alloc list ->
  nreg:int ->
  Prog.t list ->
  (t, error) result
(** The paper's Figure-8 algorithm. Programs must be in web form.

    [roots] are the threads already initialised by {!init_thread} from
    the programs, in order; when given, the programs are not
    initialised again and the search reuses every step the roots' trees
    already hold. The result comes from {!of_threads}, so no memo
    outlives the caller's roots.

    [weights] biases the greedy loop for adaptive re-balancing: thread
    [i]'s move-cost increase is multiplied by [List.nth weights i]
    before candidates are compared, so a heavily-weighted (critical)
    thread keeps its registers and moves land on co-residents. Missing
    entries default to 1; [weights = []] (the default) is byte-identical
    to the unweighted algorithm. *)

val tighten_zero_cost :
  ?roots:thread_alloc list -> nreg:int -> Prog.t list -> (t, error) result
(** Keeps reducing while some reduction is free of move insertions — the
    setting of the paper's Figure 14 experiment. [roots] as for
    {!allocate}. *)

val pp : t Fmt.t

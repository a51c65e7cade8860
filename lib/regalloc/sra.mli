(** Symmetric register allocation (paper §8).

    All threads run the same program, so the pooled constraint collapses
    to [Nthd * PR + SR <= Nreg] and the (PR, SR) space is traversed
    exhaustively for the cheapest allocation. *)

open Npra_ir

type t = {
  name : string;
  prog : Prog.t;
  ctx : Context.t;
  bounds : Estimate.bounds;
  nthd : int;
  pr : int;
  sr : int;
  cost : int;  (** move instructions per thread *)
}

type error = [ `Infeasible of string ]

val demand : t -> int
(** [Nthd * PR + SR]. *)

val allocate :
  ?root:Inter.thread_alloc -> nreg:int -> nthd:int -> Prog.t -> (t, error) result
(** The program must be in web form ({!Npra_cfg.Webs.rename}). The sweep
    walks one step tree from [root] ({!Inter.init_thread} of the program,
    computed when omitted), so the walks to different (PR, SR) targets
    share their common prefixes, and a caller that keeps the root can
    walk to the chosen point again for free. *)

val pp : t Fmt.t

(* A minimal interpreter of the machine's timing model over undecoded
   [Instr.t], written apart from [Machine] so it can serve as the oracle
   for what [Refexec] cannot see: cycles, context switches, wait cycles,
   moves and completion times.

   It models exactly the rules [Machine] documents: one instruction per
   cycle; a load or store blocks the thread for the access latency (the
   address's tier, or the flat [mem_latency]) and a load's value reaches
   its destination register only when the thread is dispatched again;
   [Ctx_switch], memory accesses and [Halt] give up the PU; the next
   thread is picked round-robin after the one that yielded, and a switch
   to a different thread — or back to one that had to wait — costs
   [ctx_switch_cost] cycles; when nobody is ready the clock jumps to the
   earliest wake-up. Only complete runs are modelled: no sentinel, no
   bounded slices, and a run past [max_cycles] fails. *)

open Npra_ir
open Npra_sim

type status = Ready | Blocked of int | Done of int

type thread = {
  prog : Prog.t;
  mutable pc : int;
  mutable status : status;
  mutable instrs : int;
  mutable ctx : int;
  mutable loads : int;
  mutable stores : int;
  mutable moves : int;
  mutable writeback : (int * int) option;
  mutable trace_rev : (int * int) list;
  mutable ready_since : int;
  mutable wait : int;
}

let index = function
  | Reg.P n -> n
  | Reg.V _ -> invalid_arg "Instr_oracle: virtual register"

let run ?(config = Machine.default_config) ?(mem_image = []) progs :
    Machine.report =
  let regs = Array.make config.Machine.nreg 0 in
  let mem = Memory.create () in
  Memory.load_image mem mem_image;
  let threads =
    Array.of_list
      (List.map
         (fun prog ->
           {
             prog;
             pc = 0;
             status = Ready;
             instrs = 0;
             ctx = 0;
             loads = 0;
             stores = 0;
             moves = 0;
             writeback = None;
             trace_rev = [];
             ready_since = 0;
             wait = 0;
           })
         progs)
  in
  let n = Array.length threads in
  let cycle = ref 0 and busy = ref 0 and switch = ref 0 in
  let get r = regs.(index r) in
  let value = function Instr.Reg r -> get r | Instr.Imm k -> k in
  let block th a =
    let latency =
      match config.Machine.tiers with
      | None -> config.Machine.mem_latency
      | Some h -> Memory.latency h a
    in
    th.status <- Blocked (!cycle + latency)
  in
  (* Executes one instruction; [true] while the thread keeps the PU. *)
  let step th =
    let ins = Prog.instr th.prog th.pc in
    incr cycle;
    incr busy;
    th.instrs <- th.instrs + 1;
    th.pc <- th.pc + 1;
    match ins with
    | Instr.Alu { op; dst; src1; src2 } ->
      regs.(index dst) <- Instr.eval_alu op (get src1) (value src2);
      true
    | Instr.Mov { dst; src } ->
      th.moves <- th.moves + 1;
      regs.(index dst) <- get src;
      true
    | Instr.Movi { dst; imm } ->
      regs.(index dst) <- imm;
      true
    | Instr.Load { dst; addr; off } ->
      let a = get addr + off in
      th.writeback <- Some (index dst, Memory.read mem a);
      th.loads <- th.loads + 1;
      th.ctx <- th.ctx + 1;
      block th a;
      false
    | Instr.Store { src; addr; off } ->
      let a = get addr + off in
      let v = get src in
      Memory.write mem a v;
      th.trace_rev <- (a, v) :: th.trace_rev;
      th.stores <- th.stores + 1;
      th.ctx <- th.ctx + 1;
      block th a;
      false
    | Instr.Br { target } ->
      th.pc <- Prog.label_index th.prog target;
      true
    | Instr.Brc { cond; src1; src2; target } ->
      if Instr.eval_cond cond (get src1) (value src2) then
        th.pc <- Prog.label_index th.prog target;
      true
    | Instr.Ctx_switch ->
      th.ctx <- th.ctx + 1;
      false
    | Instr.Nop -> true
    | Instr.Halt ->
      th.status <- Done !cycle;
      false
  in
  let wake () =
    Array.iter
      (fun th ->
        match th.status with
        | Blocked until when until <= !cycle ->
          th.status <- Ready;
          th.ready_since <- max until !cycle
        | Blocked _ | Ready | Done _ -> ())
      threads
  in
  let rec pick from =
    wake ();
    let ready =
      List.find_opt
        (fun i -> threads.(i).status = Ready)
        (List.init n (fun k -> (from + k + 1) mod n))
    in
    match ready with
    | Some i -> Some i
    | None -> (
      let wakeups =
        Array.to_list threads
        |> List.filter_map (fun th ->
               match th.status with Blocked u -> Some u | _ -> None)
      in
      match wakeups with
      | [] -> None
      | u :: us ->
        cycle := max !cycle (List.fold_left min u us);
        pick from)
  in
  let rec schedule ~from ~yielder =
    match pick from with
    | None -> ()
    | Some next ->
      (match yielder with
      | None -> ()
      | Some y ->
        let yth = threads.(y) in
        if next <> y || yth.status <> Ready then begin
          cycle := !cycle + config.Machine.ctx_switch_cost;
          switch := !switch + config.Machine.ctx_switch_cost
        end;
        if yth.status = Ready then yth.ready_since <- !cycle);
      let th = threads.(next) in
      (match th.writeback with
      | Some (dst, v) ->
        regs.(dst) <- v;
        th.writeback <- None
      | None -> ());
      th.wait <- th.wait + max 0 (!cycle - th.ready_since);
      let rec hold () =
        if !cycle > config.Machine.max_cycles then
          failwith "Instr_oracle: cycle budget exceeded";
        if step th then hold ()
      in
      hold ();
      schedule ~from:next ~yielder:(Some next)
  in
  schedule ~from:(n - 1) ~yielder:None;
  {
    Machine.total_cycles = !cycle;
    busy_cycles = !busy;
    switch_cycles = !switch;
    idle_cycles = max 0 (!cycle - !busy - !switch);
    utilization =
      (if !cycle = 0 then 0. else float_of_int !busy /. float_of_int !cycle);
    thread_reports =
      Array.to_list threads
      |> List.map (fun th ->
             {
               Machine.name = th.prog.Prog.name;
               completion =
                 (match th.status with Done c -> Some c | _ -> None);
               instructions = th.instrs;
               context_switches = th.ctx;
               load_count = th.loads;
               store_count = th.stores;
               move_count = th.moves;
               wait_cycles = th.wait;
               store_trace = List.rev th.trace_rev;
               fault = None;
             });
  }

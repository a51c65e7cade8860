(* In-memory span recorder for the traced run.

   Spans wrap the benchmark's own calls into each layer's public
   functions; nothing inside the library is instrumented. Every span
   belongs to one sample (one call of one op) and records its wall time
   and the minor words allocated while it was open. Spans are only
   opened from the benchmark's main domain, so a plain stack suffices.
   When recording is off, [span] is one branch. *)

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 at the top of a sample *)
  sample : int;
  op : string;
  t0 : float;
  t1 : float;
  minor_words : float;
}

let on = ref false
let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let cur_sample = ref 0
let cur_op = ref ""

(* Span totals and counters of the sample being recorded. *)
let totals : (string, float) Hashtbl.t = Hashtbl.create 64

let add name v =
  Hashtbl.replace totals name
    (v +. Option.value (Hashtbl.find_opt totals name) ~default:0.)

(* Seconds per span name, and counter values, of one sample. *)
type sample = (string * float) list

let begin_sample op =
  incr cur_sample;
  cur_op := op;
  Hashtbl.reset totals

let end_sample () : sample =
  let s = Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals [] in
  Hashtbl.reset totals;
  s

let count name v = if !on then add name v

let span name f =
  if not !on then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent = match !stack with [] -> -1 | p :: _ -> p in
    stack := id :: !stack;
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      let minor_words = Gc.minor_words () -. w0 in
      stack := List.tl !stack;
      add name (t1 -. t0);
      spans :=
        { id; name; parent; sample = !cur_sample; op = !cur_op; t0; t1;
          minor_words }
        :: !spans
    in
    match f () with
    | r -> finish (); r
    | exception e -> finish (); raise e
  end

(* Self time: a span's duration minus the time its children cover. *)
let self_times () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (s.t1 -. s.t0
          +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.))
    !spans;
  fun s -> s.t1 -. s.t0 -. Option.value (Hashtbl.find_opt child s.id) ~default:0.

(* Chrome trace-event JSON, which Perfetto and chrome://tracing open.
   Each event carries its op, sample, self time and minor words. *)
let write path =
  let self = self_times () in
  let evs = List.rev !spans in
  let base = List.fold_left (fun a s -> Float.min a s.t0) infinity evs in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"traceEvents\": [\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": \
             %.3f, \"dur\": %.3f, \"args\": {\"op\": %S, \"sample\": %d, \
             \"id\": %d, \"parent\": %d, \"self_us\": %.3f, \"minor_words\": \
             %.0f}}\n"
            (if i = 0 then "" else ",")
            s.name
            (1e6 *. (s.t0 -. base))
            (1e6 *. (s.t1 -. s.t0))
            s.op s.sample s.id s.parent
            (1e6 *. self s)
            s.minor_words)
        evs;
      output_string oc "], \"displayTimeUnit\": \"ms\"}\n")

(* Span recorder for the traced run.

   Every layer call the benchmark wraps is bracketed by [enter]/[leave] on
   the calling domain's own state (Domain.DLS), so worker domains of a
   parallel search never share a counter: there is nothing to contend on
   and nothing to lose.  Each state keeps

   - per-layer accumulators: calls, total and self nanoseconds, and the
     domain's minor words allocated inside the span;
   - the stack of open spans, so a span's self time is its duration minus
     the time its child spans cover;
   - the spans it stored (name, start, end, parent), written out as a
     Chrome trace at exit.  Every span feeds the accumulators, but only the
     run's first [keep_per_layer] spans of each layer, over all domains,
     are stored: an iteration makes up to ~10^6 layer calls.

   The clock and word reads are [@@noalloc] externals, so a wrapped call
   allocates nothing beyond what the wrapped layer allocates. *)

let names =
  [| "iteration"; "program.build"; "explore.script"; "signaling.property";
     "op.commute"; "cost_model.account" |]

let iteration = 0
let build = 1
let script = 2
let property = 3
let commute = 4
let account = 5
let n_layers = Array.length names
let keep_per_layer = 2048
let max_depth = 32

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let words () = int_of_float (Gc.minor_words ())

type state = {
  slot : int;
  calls : int array;
  total_ns : int array;
  self_ns : int array;
  words_in : int array;
  mutable depth : int;
  mutable next_id : int;
  st_layer : int array;
  st_id : int array;
  st_start : int array;
  st_child : int array;
  st_words : int array;
  sp_layer : int array;
  sp_id : int array;
  sp_parent : int array;
  sp_start : int array;
  sp_end : int array;
  mutable n_spans : int;
}

let registry = ref []
let registry_lock = Mutex.create ()

(* The id of the main domain's open root span: the parent of a worker
   domain's outermost spans. *)
let root_id = Atomic.make (-1)

(* Spans stored so far, per layer, over all domains.  Past the cap a span
   only reads its counter, so domains do not contend on it. *)
let kept = Array.init n_layers (fun _ -> Atomic.make 0)

let make slot =
  let cap = keep_per_layer * n_layers in
  { slot;
    calls = Array.make n_layers 0;
    total_ns = Array.make n_layers 0;
    self_ns = Array.make n_layers 0;
    words_in = Array.make n_layers 0;
    depth = 0;
    next_id = 0;
    st_layer = Array.make max_depth 0;
    st_id = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    st_words = Array.make max_depth 0;
    sp_layer = Array.make cap 0;
    sp_id = Array.make cap 0;
    sp_parent = Array.make cap 0;
    sp_start = Array.make cap 0;
    sp_end = Array.make cap 0;
    n_spans = 0 }

let key =
  Domain.DLS.new_key (fun () ->
      Mutex.protect registry_lock (fun () ->
          let st = make (List.length !registry) in
          registry := st :: !registry;
          st))

let state () = Domain.DLS.get key

let enter st layer =
  let d = st.depth in
  if d >= max_depth then failwith "Spans.enter: nesting too deep";
  let id = (st.slot lsl 40) lor st.next_id in
  st.next_id <- st.next_id + 1;
  if d = 0 && Domain.is_main_domain () then Atomic.set root_id id;
  st.st_layer.(d) <- layer;
  st.st_id.(d) <- id;
  st.st_child.(d) <- 0;
  st.depth <- d + 1;
  st.st_words.(d) <- words ();
  st.st_start.(d) <- now_ns ()

let leave st =
  let t1 = now_ns () in
  let w1 = words () in
  let d = st.depth - 1 in
  st.depth <- d;
  let layer = st.st_layer.(d) in
  let dur = t1 - st.st_start.(d) in
  st.calls.(layer) <- st.calls.(layer) + 1;
  st.total_ns.(layer) <- st.total_ns.(layer) + dur;
  st.self_ns.(layer) <- st.self_ns.(layer) + dur - st.st_child.(d);
  st.words_in.(layer) <- st.words_in.(layer) + w1 - st.st_words.(d);
  if d > 0 then st.st_child.(d - 1) <- st.st_child.(d - 1) + dur;
  let k = kept.(layer) in
  if Atomic.get k < keep_per_layer && Atomic.fetch_and_add k 1 < keep_per_layer
  then begin
    let i = st.n_spans in
    st.n_spans <- i + 1;
    st.sp_layer.(i) <- layer;
    st.sp_id.(i) <- st.st_id.(d);
    st.sp_parent.(i) <-
      (if d > 0 then st.st_id.(d - 1)
       else if Domain.is_main_domain () then -1
       else Atomic.get root_id);
    st.sp_start.(i) <- st.st_start.(d);
    st.sp_end.(i) <- t1
  end

(* Per-layer sums over every domain that ever recorded a span. *)
type totals = {
  t_calls : int array;
  t_total_ns : int array;
  t_self_ns : int array;
  t_words : int array;
}

let totals () =
  let z () = Array.make n_layers 0 in
  let t =
    { t_calls = z (); t_total_ns = z (); t_self_ns = z (); t_words = z () }
  in
  let add dst src = Array.iteri (fun i v -> dst.(i) <- dst.(i) + v) src in
  Mutex.protect registry_lock (fun () ->
      List.iter
        (fun st ->
          add t.t_calls st.calls;
          add t.t_total_ns st.total_ns;
          add t.t_self_ns st.self_ns;
          add t.t_words st.words_in)
        !registry);
  t

(* Zero the accumulators (kept spans stay).  Only between iterations, when
   no span is open on any domain. *)
let reset () =
  Mutex.protect registry_lock (fun () ->
      List.iter
        (fun st ->
          st.depth <- 0;
          List.iter
            (fun a -> Array.fill a 0 n_layers 0)
            [ st.calls; st.total_ns; st.self_ns; st.words_in ])
        !registry)

(* Chrome trace_event JSON: one complete ("X") event per kept span, one
   thread lane per domain, timestamps in microseconds from the earliest
   span; [args] carries the span and parent ids. *)
let write_chrome path =
  let states = Mutex.protect registry_lock (fun () -> List.rev !registry) in
  let t0 =
    List.fold_left
      (fun acc st ->
        let m = ref acc in
        for i = 0 to st.n_spans - 1 do
          m := min !m st.sp_start.(i)
        done;
        !m)
      max_int states
  in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  let first = ref true in
  List.iter
    (fun st ->
      for i = 0 to st.n_spans - 1 do
        if not !first then output_string oc ",\n";
        first := false;
        Printf.fprintf oc
          "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\
           \"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
          names.(st.sp_layer.(i))
          st.slot
          (float_of_int (st.sp_start.(i) - t0) /. 1e3)
          (float_of_int (st.sp_end.(i) - st.sp_start.(i)) /. 1e3)
          st.sp_id.(i) st.sp_parent.(i)
      done)
    states;
  output_string oc "]}\n";
  close_out oc

(** Chrome [trace_event] sink — the JSON format loaded by
    [chrome://tracing] and Perfetto.

    Logical simulator ticks are written as microseconds so the viewer's
    time axis is the event clock; wall time never appears, keeping the
    file byte-identical across hosts.  Tracks: chrome
    process 0 is the simulated machine with one thread lane per
    simulator pid; processes 1–3 carry adversary decisions, explorer
    task spans, and runner experiment spans. *)

val render : Event.t -> string
(** One event as its trace_event object(s), comma-joined (a crash emits
    a slice-closing "E" plus an instant marker). *)

val to_string : Event.t list -> string
(** The complete [{"traceEvents":[...]}] document, including
    process/thread-name metadata for every track that appears. *)

(** {1 The cells track group}

    The flat engines emit no {!Event.t} stream; their coherence traffic
    is exported through {!Smr.Flat_sim}'s [on_cache] hook as plain
    tuples, rendered on chrome process 4 with one thread lane per {e
    cell} — the transposed view of the machine tracks, built for
    eyeballing cc-flag's single hot cell against dsm-broadcast's
    smear. *)

type cell_event = {
  ce_t : int;  (** logical tick *)
  ce_pid : int;  (** acting simulator pid *)
  ce_addr : int;  (** the cell — becomes the lane *)
  ce_action : string;  (** "fetch" / "invalidate" / "update" / "roundtrip" *)
  ce_messages : int;
}

val cells_to_string :
  ?cell_name:(int -> string) -> cell_event list -> string
(** A complete trace document of coherence-traffic instants, one lane per
    appearing cell, named by [cell_name] (default ["cell <addr>"] — pass
    the layout's variable names for readable lanes).  Deterministic in
    the event list. *)

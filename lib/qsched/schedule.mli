(** Timed instruction schedules.

    A schedule assigns a start time to every instruction; qubits are
    exclusive resources for the instruction's duration. The makespan is
    the circuit's pulse latency — the quantity every experiment in the
    paper reports. *)

type entry = { inst : Qgdg.Inst.t; start : float; finish : float }

type t = {
  n_qubits : int;
  entries : entry list;  (** sorted by start time (ties by id) *)
  makespan : float;
}

val make : n_qubits:int -> entry list -> t
(** Sorts entries and computes the makespan. Raises [Invalid_argument]
    when an entry has [finish < start]. *)

val conflicts : t -> (entry * entry * int) list
(** Every pair of entries double-booking a qubit, as
    [(earlier, later, qubit)] with [earlier.start <= later.start] — the
    overlapping window is [later.start, min earlier.finish later.finish].
    Busy intervals are half-open: entries meeting exactly at an endpoint
    ([finish = start], up to 1e-9) do not conflict, and a zero-duration
    entry never conflicts, even at an instant a neighbor occupies.
    Ordered by qubit, then start time. *)

type replay = {
  missing : int list;  (** GDG ids never scheduled, ascending *)
  foreign : int list;  (** scheduled ids absent from the GDG *)
  repeated : int list;  (** one id per entry after an id's first *)
  altered : int list;
      (** ids whose first entry's member gates differ from the GDG's *)
  first : int -> entry option;  (** the entry that fixes an id's position *)
  inversions : int -> (Qgdg.Inst.t * Qgdg.Inst.t) list;
      (** [inversions q]: the GDG pairs [(a, b)], [a] before [b] on qubit
          [q]'s chain, that run as [b] before [a] — later chain element
          outer, earlier inner, in m² / 2 pair visits per call *)
}

val replay : original:Qgdg.Gdg.t -> t -> replay
(** The one check of a schedule against its GDG (paper §3.5): every GDG
    instruction runs exactly once, with its own members, and only
    commuting chain pairs may be inverted. An id's position is its first
    entry's rank in [entries] — by start, ties by id, the order
    {!linearize} runs — so a zero-duration instruction tied with a
    lower-id chain successor is inverted. [foreign], [repeated] and
    [altered] follow [entries]. The lint (QL031/QL034) and the certifier
    (QC030/QC031) map this one result and decide what commutes. *)

val utilization : t -> float
(** Busy fraction: Σ (instruction duration × width) / (n_qubits ×
    makespan) ∈ [0, 1]. The resource-efficiency counterpart of the
    makespan — parallel circuits score high, serial ones low. 0 for an
    empty schedule. *)

val qubit_busy_time : t -> int -> float
(** Total time the qubit spends inside instructions. *)

val linearize : t -> Qgdg.Inst.t list
(** Instructions by start time — a sequential order realizing the
    schedule. *)

val to_circuit : t -> Qgate.Circuit.t
(** Member gates of the linearization, as a circuit. *)

val pp : Format.formatter -> t -> unit

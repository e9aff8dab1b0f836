(** Piecewise-constant control-pulse sequences.

    A pulse sequence fixes, for every control channel, an amplitude per
    time slice of width [dt] — the representation GRAPE optimizes and the
    pulse simulator integrates (paper Fig. 3). *)

type t = {
  dt : float;  (** slice duration, ns *)
  labels : string array;  (** channel names, e.g. "x0", "y1", "xy0-1" *)
  amps : float array array;  (** [amps.(step).(channel)] in GHz *)
}

val make : dt:float -> labels:string array -> float array array -> t
(** Raises [Invalid_argument] on non-positive [dt] or ragged rows. *)

val constant : dt:float -> labels:string array -> steps:int -> float array -> t
(** All slices equal to the given per-channel amplitudes. *)

val n_steps : t -> int
val duration : t -> float

val concat : t -> t -> t
(** Sequential composition. Raises [Invalid_argument] when [dt] or channel
    labels differ. *)

val max_amplitude : t -> string -> float
(** Largest |amplitude| on the named channel. Raises [Not_found] on an
    unknown label. *)

val clip : limits:(string -> float) -> t -> t
(** Clamp every amplitude into [-limit, limit] for its channel. *)

val pp : Format.formatter -> t -> unit
(** Compact textual rendering (one line per channel, amplitudes in GHz) —
    the textual analogue of the paper's Fig. 4(c,d) pulse plots. *)

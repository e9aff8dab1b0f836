(** Compilation strategies compared in the paper's evaluation (Fig. 9).

    A strategy is a typed pass sequence over the {!Stages} catalog
    ({!passes}); {!Pipeline.run} interprets it. *)

type t =
  | Isa  (** gate-based baseline: decompose, route, ASAP-schedule *)
  | Cls  (** commutativity detection + CLS, gates still pulsed one by one *)
  | Aggregation  (** instruction aggregation without CLS *)
  | Cls_aggregation  (** the paper's full pipeline *)
  | Cls_hand  (** CLS + mechanical hand optimization ([39, 48]) *)

val all : t list

val names : string list
(** Canonical names, in {!all} order — the single source for CLI help. *)

val aliases : (string * t) list
(** Accepted shorthands ([agg], [cls_agg], [hand], …). *)

val to_string : t -> string

val of_string : string -> t
(** Accepts canonical names and {!aliases}. Raises [Invalid_argument]
    listing the valid names otherwise. *)

val pp : Format.formatter -> t -> unit

val passes : t -> (Qgate.Circuit.t, Ir.scheduled) Pass.seq
(** The strategy as a pass sequence; its type proves that each pass
    consumes its predecessor's artifact. *)

val final : t -> Stages.cost * (Qgdg.Gdg.t -> Qsched.Schedule.t)
(** The block cost the strategy's final graph carries and its final
    scheduler, as {!passes} builds them: serial cost for [isa], [cls] and
    [cls+hand], the model for the two aggregating strategies; ASAP for
    [isa] and [aggregation], CLS for the other three. *)

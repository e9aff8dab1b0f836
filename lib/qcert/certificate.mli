(** Certificates: the structured result of a certified compile.

    One {!boundary} record per certified pass boundary, each carrying a
    status, the dominant proof method, the number of elementary facts
    discharged, and any qlint-style diagnostics (QC0xx codes, see below).
    The whole-pipeline {!t} aggregates them; {!Certification_failed} is
    how [Qcc.Compiler.compile ~certify:true] fails fast, mirroring
    [Qlint.Report.Check_failed].

    QC code families (all distinct from qlint's QL0xx so [qcc lint] and
    [qcc certify] reports compose):

    - QC001 — a fact or boundary was skipped (width beyond every domain);
      warning severity: certification is sound but incomplete there.
    - QC01x — word equivalence: QC010 a rewritten segment's unitary
      changed, QC011 gate multiset mismatch, QC012 per-qubit gate order
      changed without justification.
    - QC02x — commutativity detection: QC020 a contracted block is not
      diagonal, QC021 contraction regrouping unexplained.
    - QC03x — scheduling: QC030 a schedule reorders non-commuting
      instructions, QC031 schedule/GDG instruction sets differ.
    - QC04x — routing: QC040 routed stream does not replay the placed
      logical stream, QC041 final placement mismatch.
    - QC05x — aggregation: QC050 an aggregate's unitary fails its
      cross-domain check, QC051 an aggregate exceeds the width limit,
      QC052 aggregation regrouping/reordering unexplained.
    - QC060 — end-to-end unitary mismatch (dense, small registers). *)

type status = Proved | Refuted | Skipped

(** What one boundary certifier established. *)
type outcome = {
  checks : int;  (** elementary facts discharged *)
  skipped : int;  (** facts out of reach of every domain *)
  method_ : string;  (** dominant proof method, e.g. "replay", "tableau" *)
  diags : Qlint.Diagnostic.t list;
}

val outcome :
  ?skipped:int -> ?diags:Qlint.Diagnostic.t list -> method_:string -> int ->
  outcome

val merge_outcomes : outcome list -> outcome
(** Sum checks/skips, concatenate diagnostics, join method names. *)

type boundary = {
  name : string;  (** pass-boundary name, matching {!Qcc.Compiler.passes} *)
  claim : string;  (** the proposition certified, human-readable *)
  status : status;
  bmethod : string;
  bchecks : int;
  bskipped : int;
  diagnostics : Qlint.Diagnostic.t list;
}

type t = {
  strategy : string;
  boundaries : boundary list;  (** in pipeline order *)
  proved : int;
  refuted : int;
  skipped : int;
  facts : int;  (** total elementary facts across boundaries *)
}

exception Certification_failed of t
(** Raised by certified compilation on the first refuted boundary; the
    payload ends with that boundary. A printer is registered. *)

val boundary_of_outcome : name:string -> claim:string -> outcome -> boundary
(** Status: [Refuted] when any diagnostic is error-severity; [Skipped]
    when nothing was checked but something was skipped; else [Proved]. *)

val make : strategy:string -> boundary list -> t
val ok : t -> bool
(** No refuted boundary. *)

val diagnostics : t -> Qlint.Diagnostic.t list
(** All boundary diagnostics, in pipeline order. *)

val pp : Format.formatter -> t -> unit
(** Summary line (e.g. ["cls_agg: CERTIFIED — 9 boundaries, 1284 facts
    (3 skipped)"]), one line per boundary, then any diagnostics. *)

val to_json : t -> Qobs.Json.t
(** Schema ["qcc.certificate/1"]. *)

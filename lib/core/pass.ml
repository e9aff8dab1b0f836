(** Named, typed pipeline transformations.

    A pass maps one {!Ir} artifact to the next and carries its
    instrumentation as structured hooks rather than ad-hoc call sites:

    - [run] does the work, inside a qobs span named after the pass;
    - [note] attaches key figures (node counts, swaps, contractions) to
      that span and the metrics registry, still inside the span;
    - [check] produces qlint diagnostics for the boundary just crossed
      (the driver accumulates them and fails fast on errors);
    - [certify] proves the boundary to {!Qcert.Pipeline}. In-place
      passes use {!Cert_pre} to capture the pre-state they are about to
      destroy; the snapshot is taken only when certification is on.

    A strategy is a {!seq} of passes whose types chain from the source
    circuit to a scheduled artifact, so composition is checked when the
    strategy is compiled, not when it runs. The driver ({!Pipeline.run})
    interprets the hooks in the fixed order run → note → check →
    certify. Figures that belong on the enclosing ["compile"] span
    (lowering's qubit/gate counts) are attached by {!Compiler.compile},
    not by a pass. *)

type ctx = {
  backend : Backend.t;
  obs : Qobs.Trace.t;
  metrics : Qobs.Metrics.t;
  lint : Qlint.Diagnostic.t list ref option;
  cert : Qcert.Pipeline.ctx option;
}

let ctx ?(backend = Backend.default) ?(obs = Qobs.Trace.disabled)
    ?(metrics = Qobs.Metrics.disabled) ?lint ?cert () =
  { backend; obs; metrics; lint; cert }

let observing ctx =
  Qobs.Trace.enabled ctx.obs || Qobs.Metrics.enabled ctx.metrics

let note_gdg ctx gdg =
  if observing ctx then begin
    let nodes = Qgdg.Gdg.size gdg in
    (* (node, qubit) pairs with a chain successor *)
    let edges =
      Array.fold_left
        (fun acc x -> acc + max 0 (List.length (Qgdg.Gdg.chain_ids gdg x) - 1))
        0 (Array.init (Qgdg.Gdg.n_qubits gdg) Fun.id)
    in
    Qobs.Trace.attr_int ctx.obs "nodes" nodes;
    Qobs.Trace.attr_int ctx.obs "edges" edges;
    Qobs.Metrics.incr ctx.metrics ~by:nodes "gdg.nodes";
    Qobs.Metrics.incr ctx.metrics ~by:edges "gdg.edges"
  end

let note_int ctx key v =
  Qobs.Trace.attr_int ctx.obs key v;
  Qobs.Metrics.incr ctx.metrics ~by:v ("compile." ^ key)

type ('a, 'b) certifier =
  | Cert : (ctx -> Qcert.Pipeline.ctx -> 'a -> 'b -> unit) -> ('a, 'b) certifier
      (** certify from the input/output artifacts directly *)
  | Cert_pre :
      ('a -> 's) * (ctx -> Qcert.Pipeline.ctx -> 's -> 'b -> unit)
      -> ('a, 'b) certifier
      (** snapshot the input first — for passes that mutate it in place *)

(** Whether a pass updates its input artifact's GDG in place. Only a
    stage-preserving pass can: the driver copies a shared input through
    the output's stage witness ({!Ir.clone}) before running it. *)
type (_, _) mutation =
  | Pure : ('a, 'b) mutation
  | In_place : ('a, 'a) mutation

type ('a, 'b) t = {
  name : string;  (** span name; also the row label in [qcc profile] *)
  fingerprint : string;
      (** distinguishes behavioral variants that share a name (cost
          model, input shape); part of the stage-cache key chain *)
  out : 'b Ir.stage;  (** types a stage-cache hit *)
  mutates : ('a, 'b) mutation;
  run : ctx -> 'a -> 'b;
  note : (ctx -> 'a -> 'b -> unit) option;
  check : (ctx -> 'a -> 'b -> Qlint.Diagnostic.t list) option;
  certify : ('a, 'b) certifier option;
}

let make ~name ~fingerprint ~out ?(mutates = Pure) ?note ?check ?certify
    run =
  { name; fingerprint; out; mutates; run; note; check; certify }

(** A pass sequence from an ['a] artifact to a ['b] one, in list syntax
    ([[ lower; route; … ]]): each pass must consume what its predecessor
    produced, so a mis-ordered or truncated strategy does not compile. *)
type (_, _) seq =
  | [] : ('a, 'a) seq
  | ( :: ) : ('a, 'b) t * ('b, 'c) seq -> ('a, 'c) seq

let rec names : type a b. (a, b) seq -> string list = function
  | [] -> []
  | p :: rest -> p.name :: names rest

let rec fingerprints : type a b. (a, b) seq -> string list = function
  | [] -> []
  | p :: rest -> p.fingerprint :: fingerprints rest

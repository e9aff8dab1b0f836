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

    The driver ({!Pipeline.run}) interprets the hooks in the fixed order
    run → note → check → certify. Figures that belong on the enclosing
    ["compile"] span (lowering's qubit/gate counts) are attached by
    {!Compiler.compile}, not by a pass. *)

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

(* one span per pass; the disabled path short-circuits before allocating *)
let with_span ctx name f =
  if not (observing ctx) then f ()
  else begin
    let t0 = Qobs.Clock.now_ns () in
    let g0 = Qobs.Span.gc_now () in
    let finish () =
      Qobs.Metrics.observe ctx.metrics "pass.duration_ms"
        (Qobs.Clock.elapsed_ns t0 /. 1e6);
      if Qobs.Metrics.enabled ctx.metrics then begin
        let g1 = Qobs.Span.gc_now () in
        Qobs.Metrics.observe ctx.metrics "alloc.minor_words"
          (g1.Qobs.Span.minor_words -. g0.Qobs.Span.minor_words);
        Qobs.Metrics.observe ctx.metrics "alloc.major_words"
          (g1.Qobs.Span.major_words -. g0.Qobs.Span.major_words);
        Qobs.Metrics.incr ctx.metrics
          ~by:(g1.Qobs.Span.major_collections - g0.Qobs.Span.major_collections)
          "alloc.major_collections"
      end
    in
    match Qobs.Trace.with_span ctx.obs name f with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

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
    Qobs.Metrics.gauge ctx.metrics "gdg.nodes" (float_of_int nodes);
    Qobs.Metrics.gauge ctx.metrics "gdg.edges" (float_of_int edges)
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

type ('a, 'b) t = {
  name : string;  (** span name; also the row label in [qcc profile] *)
  fingerprint : string;
      (** distinguishes behavioral variants that share a name (cost
          model, input shape); part of the stage-cache key chain *)
  inp : 'a Ir.stage;
  out : 'b Ir.stage;
  mutates : bool;  (** updates its input artifact's GDG in place *)
  run : ctx -> 'a -> 'b;
  note : (ctx -> 'a -> 'b -> unit) option;
  check : (ctx -> 'a -> 'b -> Qlint.Diagnostic.t list) option;
  certify : ('a, 'b) certifier option;
}

type packed = P : ('a, 'b) t -> packed

let make ~name ~fingerprint ~inp ~out ?(mutates = false) ?note ?check
    ?certify run =
  { name; fingerprint; inp; out; mutates; run; note; check; certify }

let name (P p) = p.name
let fingerprint (P p) = p.fingerprint
let describe (P p) = (p.name, Ir.stage_name p.inp, Ir.stage_name p.out)

module Gate = Qgate.Gate
module Circuit = Qgate.Circuit
module Inst = Qgdg.Inst
module Gdg = Qgdg.Gdg
module D = Qlint.Diagnostic

type ctx = {
  strategy : string;
  obs : Qobs.Trace.t;
  mutable rev_boundaries : Certificate.boundary list;
}

let create ?(obs = Qobs.Trace.disabled) ~strategy () =
  { strategy; obs; rev_boundaries = [] }

let finish ctx = Certificate.make ~strategy:ctx.strategy (List.rev ctx.rev_boundaries)

(* run one boundary certifier under its own "certify-<name>" span,
   beside the pass span so certification time is never charged to the
   pass, tick the ambient qcert counters, and fail fast on refutation
   with the certificate built so far *)
let boundary ctx ~name ~claim f =
  let outcome =
    Qobs.Trace.with_span ctx.obs ("certify-" ^ name) (fun () ->
        let o = f () in
        Qobs.Trace.attr_int ctx.obs "checks" o.Certificate.checks;
        Qobs.Trace.attr_int ctx.obs "skipped" o.Certificate.skipped;
        Qobs.Trace.attr_str ctx.obs "method" o.Certificate.method_;
        o)
  in
  let b = Certificate.boundary_of_outcome ~name ~claim outcome in
  ctx.rev_boundaries <- b :: ctx.rev_boundaries;
  Qobs.Metrics.tick ~by:b.Certificate.bchecks "qcert.facts";
  (match b.Certificate.status with
   | Certificate.Proved -> Qobs.Metrics.tick "qcert.proved"
   | Certificate.Refuted -> Qobs.Metrics.tick "qcert.refuted"
   | Certificate.Skipped -> Qobs.Metrics.tick "qcert.skipped");
  if b.Certificate.status = Certificate.Refuted then
    raise (Certificate.Certification_failed (finish ctx))

(* ---- boundary entry points, one per pass seam ---- *)

let lower ctx ~src ~dst =
  boundary ctx ~name:"lower"
    ~claim:"lowered stream \xe2\x89\xa1 source circuit up to global phase"
    (fun () ->
      Rewrite.equivalence ~stage:"lower" ~src:(Circuit.gates src)
        ~dst:(Circuit.gates dst))

let handopt ctx ~name ~src ~dst =
  boundary ctx ~name
    ~claim:"peephole-optimized stream \xe2\x89\xa1 its input up to global phase"
    (fun () ->
      Rewrite.equivalence ~stage:name ~src:(Circuit.gates src)
        ~dst:(Circuit.gates dst))

let gdg_build ctx ~name ~circuit ~gdg =
  boundary ctx ~name
    ~claim:"GDG linearization \xe2\x89\xa1 input stream under the dependence \
            relation"
    (fun () ->
      Reorder.dependence ~stage:name ~src:(Circuit.gates circuit)
        ~dst:(Gdg.all_gates gdg))

(* a contracted block (Gdg.of_circuit starts from singletons, so any
   multi-gate instruction after [detect] is one) must be diagonal: that is
   the semantic fact Comm_group and CLS rely on downstream *)
let diagonality_outcome (i : Inst.t) =
  if List.length i.Inst.gates <= 1 then None
  else
    match Domain.is_diagonal_gates i.Inst.gates with
    | Domain.Proved, meth -> Some (Certificate.outcome ~method_:meth 1)
    | Domain.Refuted, meth ->
      Some
        (Certificate.outcome ~method_:meth 0
           ~diags:
             [ D.make ~stage:"detect" ~insts:[ i.Inst.id ]
                 ~qubits:i.Inst.qubits ~code:"QC020" ~severity:D.Error
                 (Printf.sprintf
                    "contracted instruction %d is not diagonal in the \
                     computational basis" i.Inst.id) ])
    | Domain.Unknown, _ ->
      Some
        (Certificate.outcome ~method_:"none" 0 ~skipped:1
           ~diags:
             [ D.make ~stage:"detect" ~insts:[ i.Inst.id ] ~code:"QC001"
                 ~severity:D.Warning
                 (Printf.sprintf
                    "contracted instruction %d too wide to prove diagonal"
                    i.Inst.id) ])

let contraction ctx ~before ~gdg =
  boundary ctx ~name:"detect"
    ~claim:"contracted blocks are diagonal and regroup the input \
            instructions"
    (fun () ->
      let after = Gdg.insts gdg in
      let regroup =
        Reorder.regroup ~stage:"detect" ~code_parse:"QC021"
          ~code_reorder:"QC021" ~before ~after ()
      in
      Certificate.merge_outcomes
        (regroup :: List.filter_map diagonality_outcome after))

let schedule ctx ~name ~gdg sched =
  boundary ctx ~name
    ~claim:"schedule replays a GDG topological order modulo certified \
            commutations"
    (fun () -> Reorder.schedule ~stage:name ~original:gdg sched)

let route ctx ~initial ~final ~logical ~routed =
  boundary ctx ~name:"route"
    ~claim:"routed stream \xe2\x89\xa1 placed logical stream with absorbed \
            SWAPs"
    (fun () ->
      Route_check.replay ~stage:"route" ~initial ~final ~logical ~routed)

let rebuild ctx ~src ~gdg =
  boundary ctx ~name:"rebuild"
    ~claim:"rebuilt GDG linearization \xe2\x89\xa1 routed stream under the \
            dependence relation"
    (fun () ->
      Reorder.dependence ~stage:"rebuild" ~src
        ~dst:(Gdg.all_gates gdg))

(* cross-domain consistency: when an aggregate sits in the CNOT+diagonal
   fragment on a small support, its phase-polynomial matrix must agree
   with the dense product of its members — a check of the aggregated
   target unitary that also exercises the symbolic domain against the
   reference semantics *)
let cross_check_limit = 6

let cross_check_outcome (i : Inst.t) =
  let support = List.sort_uniq compare i.Inst.qubits in
  let k = List.length support in
  if List.length i.Inst.gates <= 1 || k = 0 || k > cross_check_limit then None
  else begin
    let index q =
      let rec find j = function
        | [] -> invalid_arg "Pipeline.cross_check"
        | s :: _ when s = q -> j
        | _ :: tl -> find (j + 1) tl
      in
      find 0 support
    in
    let local = List.map (Gate.map_qubits index) i.Inst.gates in
    match Qdomain.Phase_poly.of_gates ~n_qubits:k local with
    | None -> None
    | Some p ->
      let dense = Qgate.Unitary.of_gates ~n_qubits:k local in
      if
        Qnum.Cmat.equal_up_to_phase ~eps:1e-7
          (Qdomain.Phase_poly.to_matrix p)
          dense
      then Some (Certificate.outcome ~method_:"cross-domain" 1)
      else
        Some
          (Certificate.outcome ~method_:"cross-domain" 0
             ~diags:
               [ D.make ~stage:"aggregate" ~insts:[ i.Inst.id ]
                   ~qubits:i.Inst.qubits ~code:"QC050" ~severity:D.Error
                   (Printf.sprintf
                      "aggregate %d: phase-polynomial unitary disagrees \
                       with the dense product of its members" i.Inst.id) ])
  end

let aggregation ctx ~width_limit ~before ~gdg =
  boundary ctx ~name:"aggregate"
    ~claim:"aggregates regroup the input instructions within the width \
            limit; target unitaries cross-checked"
    (fun () ->
      let after = Gdg.insts gdg in
      let regroup =
        Reorder.regroup ~stage:"aggregate" ~code_parse:"QC052"
          ~code_reorder:"QC052" ~width_limit ~before ~after ()
      in
      Certificate.merge_outcomes
        (regroup :: List.filter_map cross_check_outcome after))

(* ---- whole-pipeline dense check on small registers ---- *)

let end_to_end_limit = 8

let end_to_end ctx ~n_sites ~initial ~final ~logical sched =
  boundary ctx ~name:"end-to-end"
    ~claim:
      "U_routed \xc2\xb7 P_initial \xe2\x89\xa1 P_final \xc2\xb7 U_logical \
       (dense)"
    (fun () ->
      if n_sites > end_to_end_limit then
        Certificate.outcome ~method_:"dense" 0 ~skipped:1
          ~diags:
            [ D.make ~stage:"end-to-end" ~code:"QC001" ~severity:D.Warning
                (Printf.sprintf
                   "register of %d sites too wide for the dense \
                    end-to-end check (limit %d)" n_sites end_to_end_limit) ]
      else begin
        let embed c = Circuit.make n_sites (Circuit.gates c) in
        let u_sites = Circuit.unitary (embed (Qsched.Schedule.to_circuit sched)) in
        let u_logical = Circuit.unitary (embed logical) in
        let p_init = Qmap.Placement.permutation_unitary ~n_qubits:n_sites initial in
        let p_final = Qmap.Placement.permutation_unitary ~n_qubits:n_sites final in
        let lhs = Qnum.Cmat.mul u_sites p_init in
        let rhs = Qnum.Cmat.mul p_final u_logical in
        if Qnum.Cmat.equal_up_to_phase ~eps:1e-6 lhs rhs then
          Certificate.outcome ~method_:"dense" 1
        else
          Certificate.outcome ~method_:"dense" 0
            ~diags:
              [ D.make ~stage:"end-to-end" ~code:"QC060" ~severity:D.Error
                  "compiled unitary differs from the source circuit's \
                   unitary under the placement permutations" ]
      end)

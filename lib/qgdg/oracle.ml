module Gate = Qgate.Gate

let max_check_width = 8

type klass = Identity | Diagonal | Clifford | Phase_linear | General

let klass_to_string = function
  | Identity -> "identity"
  | Diagonal -> "diagonal"
  | Clifford -> "clifford"
  | Phase_linear -> "phase-linear"
  | General -> "general"

type t = {
  digest : string;
  support : int list;
  klass : klass;
  in_clifford : bool;
  in_phase_poly : bool;
  all_diagonal : bool;
}

let all_diagonal gs = List.for_all (fun g -> Gate.is_diagonal_kind g.Gate.kind) gs

(* a support qubit's label: its index in the sorted support array, by
   binary search — the order-preserving relabelling onto
   0..|support|-1 *)
let label support q =
  let lo = ref 0 and hi = ref (Array.length support - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if support.(mid) < q then lo := mid + 1 else hi := mid
  done;
  !lo

let relabel_onto support gs = List.map (Gate.map_qubits (label support)) gs

let support_of gs = List.sort_uniq Int.compare (List.concat_map Gate.qubits gs)

(* Every memo table of the detection layer lives in one per-domain slot
   (Domain.DLS): each entry is a pure function of its content-addressed
   key, so per-domain re-warming keeps results deterministic while no
   write can ever race across domains.

   - [classify]: digest of a relabelled block -> its summary payload.
   - [pair]: (digest_a, digest_b, joint mask) -> pairwise commutation
     decision (the joint overlap pattern matters, so the two block
     digests alone are not a sufficient key; the mask ({!joint_mask}) —
     which joint positions each support occupies — restores exactly the
     information of the relabelled pair, and is hashed and compared
     without building anything).
   - [diagonal]: digest of a relabelled prefix -> is the composed
     unitary diagonal (the detect pass's per-prefix question). *)
type memo_state = {
  classify : (string, klass * bool * bool * bool) Hashtbl.t;
  pair : (string * string * int, bool) Hashtbl.t;
  diagonal : (string, bool) Hashtbl.t;
}

let memos =
  Qobs.Domain_safe.Local.make (fun () ->
      { classify = Hashtbl.create 1024;
        pair = Hashtbl.create 4096;
        diagonal = Hashtbl.create 1024 })
  [@@domain_safety domain_local]

(* idempotent; clears the calling domain's tables only *)
let reset_memos () =
  let m = Qobs.Domain_safe.Local.get memos in
  Hashtbl.reset m.classify;
  Hashtbl.reset m.pair;
  Hashtbl.reset m.diagonal

(* The dense comparison on already-relabelled gates, support 0..n-1,
   without building either operator: each operand is fused into kernels
   of at most two qubits ({!Qgate.Unitary.program}), column j of B·A is
   eⱼ pushed through a then b (the [ab] buffers), column j of A·B is eⱼ
   pushed through b then a (the [ba] buffers). Entries are compared with
   the same absolute 1e-9 tolerance as a full-matrix comparison, and the
   scan stops at the first column that differs — most dense queries
   answer "no" within a few columns. The operands' gate and fused-kernel
   counts are ticked: the work counters that show whether fusion
   happened. *)
let dense_on ~n_qubits a_gates b_gates =
  let pa = Qgate.Unitary.program ~n_qubits a_gates in
  let pb = Qgate.Unitary.program ~n_qubits b_gates in
  Qobs.Metrics.tick "commute.dense.gates"
    ~by:(List.length a_gates + List.length b_gates);
  Qobs.Metrics.tick "commute.dense.kernels"
    ~by:(Qgate.Unitary.kernels pa + Qgate.Unitary.kernels pb);
  let dim = 1 lsl n_qubits in
  let ab_re = Array.make dim 0. and ab_im = Array.make dim 0. in
  let ba_re = Array.make dim 0. and ba_im = Array.make dim 0. in
  let rec same i =
    i >= dim
    || Float.hypot (ab_re.(i) -. ba_re.(i)) (ab_im.(i) -. ba_im.(i)) <= 1e-9
       && same (i + 1)
  in
  let rec columns j =
    j >= dim
    || begin
      List.iter (fun v -> Array.fill v 0 dim 0.) [ ab_re; ab_im; ba_re; ba_im ];
      ab_re.(j) <- 1.;
      ba_re.(j) <- 1.;
      Qgate.Unitary.run pa ab_re ab_im;
      Qgate.Unitary.run pb ab_re ab_im;
      Qgate.Unitary.run pb ba_re ba_im;
      Qgate.Unitary.run pa ba_re ba_im;
      same 0 && columns (j + 1)
    end
  in
  columns 0

(* ---- summaries ---- *)

let classify ~n_qubits local =
  let pp = Qdomain.Phase_poly.of_gates ~n_qubits local in
  let tb = Qdomain.Tableau.of_gates ~n_qubits local in
  let in_phase_poly = pp <> None in
  let in_clifford = tb <> None in
  let identity =
    (match tb with
     | Some t -> Qdomain.Tableau.equal t (Qdomain.Tableau.identity n_qubits)
     | None -> false)
    ||
    match pp with
    | Some p -> Qdomain.Phase_poly.equal p (Qdomain.Phase_poly.identity n_qubits)
    | None -> false
  in
  let all_diag = all_diagonal local in
  let diagonal =
    all_diag
    ||
    match pp with
    | Some p -> Qdomain.Phase_poly.is_linear_identity p
    | None -> false
  in
  let klass =
    if identity then Identity
    else if diagonal then Diagonal
    else if in_clifford then Clifford
    else if in_phase_poly then Phase_linear
    else General
  in
  (klass, in_clifford, in_phase_poly, all_diag)

(* A summary's digest: the relabelled gates' {!Gate.add_key} encoding,
   MD5-digested to 16 raw bytes — or the encoding itself when it is
   shorter than that (a single gate, mostly), which can never equal a
   16-byte digest. The encoding is built without relabelling the gates;
   the relabelled list is made only for a classify miss. *)
let digest_of_key key = if String.length key < 16 then key else Digest.string key

let of_gates gs =
  let support = support_of gs in
  let labels = Array.of_list support in
  let key = Buffer.create 64 in
  List.iter (Gate.add_key key ~qubit:(label labels)) gs;
  let digest = digest_of_key (Buffer.contents key) in
  let m = Qobs.Domain_safe.Local.get memos in
  let payload, hit =
    match Hashtbl.find_opt m.classify digest with
    | Some payload -> (payload, true)
    | None ->
      let payload =
        classify ~n_qubits:(Array.length labels) (relabel_onto labels gs)
      in
      Hashtbl.replace m.classify digest payload;
      (payload, false)
  in
  let klass, in_clifford, in_phase_poly, all_diagonal = payload in
  ({ digest; support; klass; in_clifford; in_phase_poly; all_diagonal }, hit)

(* ---- pairwise commutation ---- *)

(* Route attribution: every query that ticks "commute.checks" resolves
   through exactly one route — structural / memo / phase_poly / tableau /
   dense / oversize — ticking "commute.route.<r>" and recording the
   query's wall time in "commute.route.<r>.ms". The per-route counters
   therefore sum to the decision count, which [qcc stats] checks and
   reports as the route mix. The clock is read only when a metrics
   registry is ambient, so the disabled path stays one branch. *)
let now_if_metrics () =
  if Qobs.Metrics.enabled (Qobs.Metrics.ambient ()) then
    Some (Qobs.Clock.now_ns ())
  else None

let route_structural = ("commute.route.structural", "commute.route.structural.ms")
let route_memo = ("commute.route.memo", "commute.route.memo.ms")
let route_phase_poly = ("commute.route.phase_poly", "commute.route.phase_poly.ms")
let route_tableau = ("commute.route.tableau", "commute.route.tableau.ms")
let route_dense = ("commute.route.dense", "commute.route.dense.ms")
let route_oversize = ("commute.route.oversize", "commute.route.oversize.ms")

let route (name, hist) t0 =
  match t0 with
  | None -> ()
  | Some t0 ->
    Qobs.Metrics.tick name;
    Qobs.Metrics.record hist (Qobs.Clock.elapsed_ns t0 /. 1e6)

(* The algebraic pair check behind both {!decide} and {!algebraic},
   dispatched on the summaries' fragment-membership flags instead of
   re-attempting each abstract domain: a concatenation lies in a
   gate-wise fragment iff both blocks do, and fragment membership is
   label-independent, so the flag dispatch attempts exactly the domains
   the old attempt-and-fail dispatch would have succeeded on, with
   identical results.

   CNOT+diagonal fragment: the phase polynomials of a·b and b·a pin both
   operators exactly (global phase included), so strict equality decides
   commutation with no dense algebra at all.

   Clifford fragment: tableau equality decides equality of a·b and b·a up
   to global phase; when the tableaus agree the residual global phase is
   read off one statevector column (|0…0⟩), far cheaper than the 2^n×2^n
   products. Genuine phase mismatches are multiples of π/4 on amplitudes
   of modulus ≥ 2^{-n/2}, so the 1e-6 tolerance only absorbs float
   noise.

   Returns the decision with the route that took it, or [None] when
   neither domain decides (a phase-polynomial comparison that strict
   equality cannot settle is [None] too, without a tableau attempt). *)
let algebraic_pair ~in_phase_poly ~in_clifford ~n_qubits a b =
  let pp =
    if not in_phase_poly then None
    else
      match
        ( Qdomain.Phase_poly.of_gates ~n_qubits (a @ b),
          Qdomain.Phase_poly.of_gates ~n_qubits (b @ a) )
      with
      | Some p_ab, Some p_ba ->
        Some (Qdomain.Phase_poly.strict_equal ~eps:1e-9 p_ab p_ba)
      | _ -> None
  in
  match pp with
  | Some r -> Option.map (fun r -> (r, route_phase_poly)) r
  | None ->
    if not in_clifford then None
    else (
      match
        ( Qdomain.Tableau.of_gates ~n_qubits (a @ b),
          Qdomain.Tableau.of_gates ~n_qubits (b @ a) )
      with
      | Some t_ab, Some t_ba ->
        let r =
          Qdomain.Tableau.equal t_ab t_ba
          &&
          let s_ab = Qgate.Unitary.state_of_gates ~n_qubits (a @ b) in
          let s_ba = Qgate.Unitary.state_of_gates ~n_qubits (b @ a) in
          let ok = ref true in
          Array.iteri
            (fun i z ->
              if Qnum.Cx.abs (Qnum.Cx.sub z s_ba.(i)) > 1e-6 then ok := false)
            s_ab;
          !ok
        in
        Some (r, route_tableau)
      | _ -> None)

(* The joint membership mask of two summaries' sorted supports, in one
   merge walk. Joint position k owns bit 2k ("on a") and bit 2k+1 ("on
   b"), so every position's two-bit digit is nonzero, and the mask alone
   gives the joint width ({!mask_width}), whether the supports meet
   ({!mask_meets}) and where each support sits in the joint support.
   Positions from [mask_positions] on fold into one last digit that
   reads "on both" iff some folded position is: such a joint is wider
   than any width this module checks, and meeting supports still show. *)
let mask_positions = 30

let joint_mask sa sb =
  let put k d =
    if k < mask_positions then d lsl (2 * k)
    else (if d = 3 then 3 else 1) lsl (2 * mask_positions)
  in
  let rec walk k m a b =
    match (a, b) with
    | [], [] -> m
    | _ :: a', [] -> walk (k + 1) (m lor put k 1) a' []
    | [], _ :: b' -> walk (k + 1) (m lor put k 2) [] b'
    | p :: a', q :: b' ->
      if p < q then walk (k + 1) (m lor put k 1) a' b
      else if q < p then walk (k + 1) (m lor put k 2) a b'
      else walk (k + 1) (m lor put k 3) a' b'
  in
  walk 0 0 sa.support sb.support

let rec mask_width m = if m = 0 then 0 else 1 + mask_width (m lsr 2)

(* some position's digit has both bits *)
let mask_meets m = m land (m lsr 1) land 0x1555_5555_5555_5555 <> 0

(* the sorted joint support, built only where gates get relabelled *)
let joint_support sa sb =
  Array.of_list (List.sort_uniq Int.compare (sa.support @ sb.support))

(* Identity or Diagonal: the operator is exactly diagonal (the affine
   test behind the Diagonal klass is exact boolean algebra) or scalar, so
   two such operators commute *)
let diagonal_klass s = s.klass = Identity || s.klass = Diagonal

(* Shared slow path: support width gate, then the klass-pair shortcut
   (two provably diagonal operators commute exactly), then the pair memo
   keyed by both digests and the joint [mask], then the flag-dispatched
   algebraic domains, then the dense comparison. Callers have already
   dispatched the structural shortcuts. A memo hit builds no key string,
   joint support or relabelled gate. *)
let decide ~t0 ~mask sa sb a_gates b_gates =
  let n_qubits = mask_width mask in
  if n_qubits > max_check_width then begin
    route route_oversize t0;
    false
  end
  else if diagonal_klass sa && diagonal_klass sb then begin
    route route_structural t0;
    true
  end
  else begin
    let key = (sa.digest, sb.digest, mask) in
    let m = Qobs.Domain_safe.Local.get memos in
    match Hashtbl.find_opt m.pair key with
    | Some r ->
      route route_memo t0;
      r
    | None ->
      let joint = joint_support sa sb in
      let a = relabel_onto joint a_gates in
      let b = relabel_onto joint b_gates in
      let r =
        match
          algebraic_pair
            ~in_phase_poly:(sa.in_phase_poly && sb.in_phase_poly)
            ~in_clifford:(sa.in_clifford && sb.in_clifford)
            ~n_qubits a b
        with
        | Some (r, taken) ->
          route taken t0;
          r
        | None ->
          Qobs.Metrics.record "commute.dense.width" (float_of_int n_qubits);
          let r = dense_on ~n_qubits a b in
          route route_dense t0;
          r
      in
      Hashtbl.replace m.pair key r;
      r
  end

let blocks ?sa ?sb a b =
  Qobs.Metrics.tick "commute.checks";
  let t0 = now_if_metrics () in
  match (a, b) with
  | [], _ | _, [] ->
    route route_structural t0;
    true
  | _ ->
    let sa = match sa with Some s -> s | None -> fst (of_gates a) in
    let sb = match sb with Some s -> s | None -> fst (of_gates b) in
    let mask = joint_mask sa sb in
    if (not (mask_meets mask)) || (sa.all_diagonal && sb.all_diagonal) then begin
      route route_structural t0;
      true
    end
    else decide ~t0 ~mask sa sb a b

let gates a b =
  Qobs.Metrics.tick "commute.checks";
  let t0 = now_if_metrics () in
  if
    Gate.equal a b
    || (not (Gate.shares_qubit a b))
    || (Gate.is_diagonal_kind a.Gate.kind && Gate.is_diagonal_kind b.Gate.kind)
  then begin
    route route_structural t0;
    true
  end
  else
    let sa = fst (of_gates [ a ]) and sb = fst (of_gates [ b ]) in
    decide ~t0 ~mask:(joint_mask sa sb) sa sb [ a ] [ b ]

(* The lint-side query (QL070): disjoint supports, then the klass-pair
   shortcut, then the flag-dispatched algebraic domains on joint supports
   up to [algebraic_width] qubits — wider than the dense cap because no
   2ⁿ operator is ever built here. No dense step, no memo, no metric. *)
let algebraic_width = 12

let algebraic ~sa ~sb a b =
  let mask = joint_mask sa sb in
  if (not (mask_meets mask)) || (diagonal_klass sa && diagonal_klass sb) then
    Some true
  else
    let n_qubits = mask_width mask in
    if n_qubits > algebraic_width then None
    else
      let joint = joint_support sa sb in
      Option.map fst
        (algebraic_pair
           ~in_phase_poly:(sa.in_phase_poly && sb.in_phase_poly)
           ~in_clifford:(sa.in_clifford && sb.in_clifford)
           ~n_qubits (relabel_onto joint a) (relabel_onto joint b))

(* ---- incremental diagonal-prefix scanning (the detect pass) ---- *)

(* Route attribution mirrors the pairwise counters: every prefix decision
   ticks "detect.checks" and exactly one "detect.route.<r>" counter —
   structural / memo / phase_poly / dense / oversize — with a matching
   [.ms] histogram, so the per-route counters sum to the decision count
   ([qcc stats] checks the partition). *)
let detect_structural = ("detect.route.structural", "detect.route.structural.ms")
let detect_memo = ("detect.route.memo", "detect.route.memo.ms")
let detect_phase_poly = ("detect.route.phase_poly", "detect.route.phase_poly.ms")
let detect_dense = ("detect.route.dense", "detect.route.dense.ms")
let detect_oversize = ("detect.route.oversize", "detect.route.oversize.ms")

(* One scan composes a growing gate sequence once, so deciding every
   prefix of an n-gate run costs O(n) domain updates instead of the
   reference's O(n²) rebuild-and-recheck:

   - gates are relabelled onto first-seen order, which is prefix-stable
     (extending the run never changes the relabelling of an earlier
     gate) and label-independent, so congruent runs anywhere on the
     register share their per-prefix decisions;
   - the phase polynomial of the relabelled prefix is composed in place
     by [Phase_poly.apply_gate] and dies permanently once a gate escapes
     the CNOT+diagonal fragment (fragment membership is gate-wise);
   - the memo key is a byte buffer of the relabelled gates (encoded per
     gate by [Gate.add_key], whose fixed-length-per-tag format keeps the
     concatenation prefix-free), digested per decision and cached in the
     per-domain [diagonal] table. *)
type scan = {
  mutable rev_gates : Gate.t list list;  (* node gate lists, newest first *)
  mutable all_diag : bool;
  relabel : (int, int) Hashtbl.t;
  mutable next_local : int;
  pp : Qdomain.Phase_poly.t;  (* on 2 local qubits; runs are pair-confined *)
  mutable pp_alive : bool;
  key : Buffer.t;
}

let scan_create () =
  { rev_gates = [];
    all_diag = true;
    relabel = Hashtbl.create 4;
    next_local = 0;
    pp = Qdomain.Phase_poly.identity 2;
    pp_alive = true;
    key = Buffer.create 64 }

let scan_push s gs =
  s.rev_gates <- gs :: s.rev_gates;
  List.iter
    (fun g ->
      if s.all_diag && not (Gate.is_diagonal_kind g.Gate.kind) then
        s.all_diag <- false;
      let lg =
        Gate.map_qubits
          (fun q ->
            match Hashtbl.find_opt s.relabel q with
            | Some k -> k
            | None ->
              let k = s.next_local in
              Hashtbl.replace s.relabel q k;
              s.next_local <- k + 1;
              k)
          g
      in
      Gate.add_key s.key ~qubit:Fun.id lg;
      if s.pp_alive then
        if s.next_local > 2 || not (Qdomain.Phase_poly.apply_gate s.pp lg) then
          s.pp_alive <- false)
    gs

(* Same decision chain as the reference diagonal-block test, incrementally:
   the syntactic all-diagonal shortcut, the support-width gate, then the
   phase-polynomial affine test (exact boolean algebra, invariant under
   the injective relabelling and the padding to two local qubits), and
   the dense fallback on the original, unrelabelled gates — bit-for-bit
   the reference's [Unitary.on_support] comparison. *)
let scan_is_diagonal s =
  Qobs.Metrics.tick "detect.checks";
  let t0 = now_if_metrics () in
  if s.all_diag then begin
    route detect_structural t0;
    true
  end
  else if s.next_local > max_check_width then begin
    route detect_oversize t0;
    false
  end
  else begin
    let key = Digest.string (Buffer.contents s.key) in
    let m = Qobs.Domain_safe.Local.get memos in
    match Hashtbl.find_opt m.diagonal key with
    | Some r ->
      route detect_memo t0;
      r
    | None ->
      if s.pp_alive && s.next_local <= 2 then begin
        let r = Qdomain.Phase_poly.is_linear_identity s.pp in
        Hashtbl.replace m.diagonal key r;
        route detect_phase_poly t0;
        r
      end
      else begin
        let gates = List.concat (List.rev s.rev_gates) in
        let _, u = Qgate.Unitary.on_support gates in
        let r = Qnum.Cmat.is_diagonal ~eps:1e-9 u in
        Hashtbl.replace m.diagonal key r;
        route detect_dense t0;
        r
      end
  end

(** Undirected graphs with integer vertices and edge weights.

    Vertices are the integers [0 .. n-1]. Parallel edges collapse (weights
    accumulate); self-loops are rejected. Used for qubit-interaction graphs,
    MAXCUT instances and device topologies. *)

type t

val create : int -> t
(** [create n] is the edgeless graph on [n] vertices. *)

val n_vertices : t -> int
val n_edges : t -> int

val add_edge : ?weight:float -> t -> int -> int -> unit
(** Adds (or re-weights, accumulating) the edge {u,v}. Raises
    [Invalid_argument] on out-of-range vertices or a self-loop. *)

val remove_edge : t -> int -> int -> unit
(** Removes the edge entirely if present; no-op otherwise. *)

val has_edge : t -> int -> int -> bool
val weight : t -> int -> int -> float
(** [weight g u v] is 0. when the edge is absent. *)

val neighbors : t -> int -> int list
(** Sorted list of neighbors. *)

val degree : t -> int -> int

val edges : t -> (int * int * float) list
(** All edges as (u, v, w) with u < v, sorted lexicographically. *)

val of_edges : int -> (int * int) list -> t
(** Unweighted construction convenience. *)

val copy : t -> t

val bfs_distances : t -> int -> int array
(** Hop distances from a source; unreachable vertices get [max_int]. *)

val shortest_path : t -> int -> int -> int list
(** A shortest path (vertex list, inclusive of both endpoints).
    Raises [Not_found] when no path exists. *)

val connected_components : t -> int list list
(** Vertex sets of the connected components. *)

val is_connected : t -> bool

val cut_weight : t -> bool array -> float
(** [cut_weight g side] is the total weight of edges crossing the
    bipartition described by [side]. *)

val induced : t -> int list -> t * int array
(** [induced g vs] is the subgraph on vertex list [vs] (relabelled
    0..k-1 in list order) together with the map back to original ids. *)

val pp : Format.formatter -> t -> unit

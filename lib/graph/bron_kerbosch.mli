(** Bron–Kerbosch maximal-clique enumeration (§4.5's MC workload,
    JGraphT's plain, non-pivoting [BronKerboschCliqueFinder]).

    Candidate/excluded sets are manipulated as sorted id arrays OCaml-side,
    but every neighbourhood is fetched from the managed graph, so the
    algorithm repeatedly touches the same long-lived node and adjacency
    objects — the recurring pointer-chasing pattern the paper's Figs. 9–10
    exploit.  Like the JGraphT finder it allocates transient set copies,
    generating steady garbage ("some allocation is done by the Bron–Kerbosch
    algorithm, which triggers GC often"). *)

type stats = {
  cliques : int;  (** maximal cliques reported *)
  max_size : int;  (** largest clique size seen *)
  expansions : int;  (** recursion nodes explored *)
}

val set_of_array : int array -> int array
(** The sorted, duplicate-free set of an array's elements, sorting the
    array in place (the result may share it). *)

val run : ?max_expansions:int -> ?garbage_every:int -> Mgraph.t -> stats
(** Enumerate maximal cliques, stopping after [max_expansions] recursion
    nodes (default unlimited) — clique counts explode on dense graphs and
    the paper itself processes only graph subsets for the same reason. *)

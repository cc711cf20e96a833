(** Generic union-find + peeling matching decoder over an arbitrary
    graph.

    Nodes carry defect marks (an even number per connected component
    once boundary conditions are periodic); the decoder returns an
    edge set whose boundary is exactly the defect set.  Used by the
    2-D toric decoder ({!Decoder}) and by the space-time (3-D) decoders
    that handle noisy syndrome measurements ({!Noisy_memory},
    {!Circuit_memory}).

    Decoding runs on a {!workspace}: every array the decoder needs,
    allocated once from the graph, so a decode allocates nothing.  A
    workspace is mutable scratch owned by one domain at a time — give
    each worker domain its own (from [Mc.Runner.model]'s
    [worker_init], say) and never share one between domains.  The graph
    itself is only read, so one graph can back any number of
    workspaces. *)

type t

(** [create ~num_nodes] — an empty graph. *)
val create : num_nodes:int -> t

val num_nodes : t -> int
val num_edges : t -> int

(** [add_edge g a b] — returns the new edge's id. *)
val add_edge : t -> int -> int -> int

(** [endpoints g e]. *)
val endpoints : t -> int -> int * int

(** Decoder scratch for one graph, as the graph was when the workspace
    was made (edges added later are not seen). *)
type workspace

(** [workspace g] — allocate the scratch for decoding on [g]. *)
val workspace : t -> workspace

(** [decode ws ~defects] — find an edge set whose boundary equals
    [defects] (indexed by node); read it back with {!num_selected} and
    {!selected_edge}.  Clusters grow half an edge per round around the
    odd clusters, largest root index first; fully grown edges merge
    clusters (weighted union-find) and form the erasure, which is then
    peeled one spanning tree per component.  Allocates nothing, and
    costs time in the clusters it grows, not in the size of the graph
    (beyond one pass over [defects]); any earlier state of [ws] is
    discarded, including that of a decode that raised.  Requires even
    defect parity per connected component; raises [Invalid_argument]
    otherwise, or if [defects] does not have one entry per node. *)
val decode : workspace -> defects:bool array -> unit

(** The number of edges the last decode selected (0 before any). *)
val num_selected : workspace -> int

(** [selected_edge ws i] — the id of the [i]-th selected edge,
    [0 <= i < num_selected ws]; each edge appears at most once. *)
val selected_edge : workspace -> int -> int

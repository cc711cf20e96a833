(** Union-find decoder for the toric code (Delfosse–Nickerson style),
    with peeling for the final pairing.

    Given the plaquette syndrome of an X-error pattern, clusters are
    grown half-an-edge at a time around the defects; clusters merge
    through fully grown edges (weighted union-find) until every
    cluster contains an even number of defects.  The fully grown edge
    set is then treated as an erasure and decoded by peeling a
    spanning forest.  Almost-linear time; threshold ≈ 9.9% for IID
    X noise, comfortably demonstrating §7's "intrinsically
    fault-tolerant" phase. *)

(** The matching graph of a lattice: plaquettes are nodes, qubits are
    edges.  With [layers > 1] it is the space-time graph of a syndrome
    history: [layers] copies (node [t·L² + plaquette] in layer [t])
    whose matching plaquettes are joined by temporal edges between
    consecutive layers.  Immutable once built, so one graph serves
    every domain. *)
type graph

(** [graph ?layers lattice] — [layers] defaults to 1, the 2-D graph. *)
val graph : ?layers:int -> Lattice.t -> graph

(** The underlying {!Match_graph}, spatial edges of layer [t] added in
    qubit order, then that layer's temporal edges in plaquette order. *)
val match_graph : graph -> Match_graph.t

(** Decoding scratch for one graph ({!Match_graph.workspace} plus the
    buffers that map its edges to qubits).  Owned by one domain at a
    time: make one per worker domain and never share it. *)
type workspace

val workspace : graph -> workspace

(** [correct ws ~defects correction] — decode the detection events
    [defects] (indexed by node) and overwrite [correction] (length
    2L²) with the qubits of the selected spatial edges, flipped once
    per layer they appear in.  Allocates nothing.  Raises
    [Invalid_argument] on odd defect parity or a length mismatch. *)
val correct : workspace -> defects:bool array -> Gf2.Bitvec.t -> unit

(** [decode_into ws syndrome correction] — the 2-D decode: overwrite
    [correction] with an X-correction whose syndrome equals
    [syndrome].  Allocates nothing. *)
val decode_into : workspace -> Gf2.Bitvec.t -> Gf2.Bitvec.t -> unit

(** [decode lattice syndrome] — an X-correction (edge set) whose
    syndrome equals [syndrome], returned fresh.  The scratch is a
    workspace kept per domain and lattice size, so this allocates only
    the result (after the first call at a size); a thread that finds
    its domain's workspace in use by another thread decodes on a fresh
    one.  Safe to call from any domain or thread. *)
val decode : Lattice.t -> Gf2.Bitvec.t -> Gf2.Bitvec.t

(** [greedy_decode lattice syndrome] — baseline ablation: repeatedly
    pair the two closest defects by torus Manhattan distance and
    connect them along a geodesic.  Simpler, lower threshold. *)
val greedy_decode : Lattice.t -> Gf2.Bitvec.t -> Gf2.Bitvec.t

type t = {
  n : int;
  mutable edges : (int * int) array;
  mutable n_edges : int;
}

let create ~num_nodes =
  { n = num_nodes; edges = Array.make 16 (0, 0); n_edges = 0 }

let num_nodes g = g.n
let num_edges g = g.n_edges

let add_edge g a b =
  if a < 0 || a >= g.n || b < 0 || b >= g.n || a = b then
    invalid_arg "Match_graph.add_edge";
  if g.n_edges = Array.length g.edges then begin
    let bigger = Array.make (2 * g.n_edges) (0, 0) in
    Array.blit g.edges 0 bigger 0 g.n_edges;
    g.edges <- bigger
  end;
  let id = g.n_edges in
  g.edges.(id) <- (a, b);
  g.n_edges <- id + 1;
  id

let endpoints g e = g.edges.(e)

(* --- workspace --------------------------------------------------------

   Every array a decode touches, allocated once.  Boundary lists are
   linked cells in a fixed pool: cell [2e] is edge [e] as seen from its
   first endpoint, cell [2e + 1] from its second, so the pool never
   grows — growth only relinks cells or drops them.  [init_head] /
   [init_next] hold each node's incident list, newest edge first
   (descending edge id), the order growth and peeling visit edges in;
   a decode starts from a copy of it, and the peeling DFS walks the
   pristine copy.

   Only nodes a decode touches — its defects and the endpoints of the
   edges it erases — leave their pristine state, along with their
   incident cells and edges, so the next decode resets just those. *)

type workspace = {
  wn : int;
  src : int array;  (* edge -> first endpoint *)
  dst : int array;  (* edge -> second endpoint *)
  init_head : int array;  (* node -> first cell of its incident list, or -1 *)
  init_next : int array;  (* cell -> next cell, or -1 *)
  head : int array;  (* root -> first cell of its boundary list, or -1 *)
  next : int array;
  parent : int array;
  rank : int array;
  parity : Bytes.t;  (* root's defect parity; during peeling, the
                        node's remaining defect *)
  minnode : int array;  (* root -> smallest node of its cluster *)
  growth : Bytes.t;  (* edge -> half-edges grown; 2 means erased *)
  touched : Bytes.t;
  touched_list : int array;
  mutable ntouched : int;
  roots : int array;  (* this round's odd roots *)
  mutable nroots : int;
  listed : Bytes.t;  (* node -> already in [roots] this round *)
  erased : int array;  (* erased edges, in erasure order *)
  mutable nerased : int;
  mutable progressed : bool;
  visited : Bytes.t;
  stack : int array;
  order : int array;  (* one component's DFS pop order *)
  parent_edge : int array;
  parent_node : int array;
  selected : int array;  (* the decode's edges: one tree edge per node *)
  mutable nselected : int;
}

let workspace g =
  let n = g.n and m = g.n_edges in
  let src = Array.init m (fun e -> fst g.edges.(e)) in
  let dst = Array.init m (fun e -> snd g.edges.(e)) in
  let init_head = Array.make n (-1) and init_next = Array.make (2 * m) (-1) in
  (* adding cells in edge order, each at the front *)
  for e = 0 to m - 1 do
    let ca = 2 * e and cb = (2 * e) + 1 in
    init_next.(ca) <- init_head.(src.(e));
    init_head.(src.(e)) <- ca;
    init_next.(cb) <- init_head.(dst.(e));
    init_head.(dst.(e)) <- cb
  done;
  { wn = n;
    src;
    dst;
    init_head;
    init_next;
    head = Array.copy init_head;
    next = Array.copy init_next;
    parent = Array.init n Fun.id;
    rank = Array.make n 0;
    parity = Bytes.make n '\000';
    minnode = Array.init n Fun.id;
    growth = Bytes.make m '\000';
    touched = Bytes.make n '\000';
    touched_list = Array.make n 0;
    ntouched = 0;
    roots = Array.make n 0;
    nroots = 0;
    listed = Bytes.make n '\000';
    erased = Array.make m 0;
    nerased = 0;
    progressed = false;
    visited = Bytes.make n '\000';
    stack = Array.make n 0;
    order = Array.make n 0;
    parent_edge = Array.make n (-1);
    parent_node = Array.make n (-1);
    selected = Array.make n 0;
    nselected = 0 }

let num_selected ws = ws.nselected

let selected_edge ws i =
  if i < 0 || i >= ws.nselected then invalid_arg "Match_graph.selected_edge";
  ws.selected.(i)

let get_bit b i = Bytes.unsafe_get b i <> '\000'
let set_bit b i v = Bytes.unsafe_set b i (if v then '\001' else '\000')

(* Record [v] as leaving its pristine state, before it does. *)
let touch ws v =
  if not (get_bit ws.touched v) then begin
    set_bit ws.touched v true;
    ws.touched_list.(ws.ntouched) <- v;
    ws.ntouched <- ws.ntouched + 1
  end

(* --- union-find with parity and boundary lists --------------------- *)

(* Path halving: only the root a call returns matters to the decoder,
   and that is the same under any compression scheme. *)
let find ws i =
  let p = ws.parent in
  let i = ref i in
  while p.(!i) <> !i do
    let up = p.(p.(!i)) in
    p.(!i) <- up;
    i := up
  done;
  !i

(* Move [small]'s boundary list, reversed, in front of [big]'s — the
   list-based [List.rev_append], cell by cell. *)
let rev_append_into ws ~small ~big =
  let cur = ref ws.head.(small) and acc = ref ws.head.(big) in
  while !cur >= 0 do
    let c = !cur in
    cur := ws.next.(c);
    ws.next.(c) <- !acc;
    acc := c
  done;
  ws.head.(big) <- !acc;
  ws.head.(small) <- -1

let union ws a b =
  let ra = find ws a and rb = find ws b in
  if ra <> rb then begin
    let big = if ws.rank.(ra) >= ws.rank.(rb) then ra else rb in
    let small = if big = ra then rb else ra in
    ws.parent.(small) <- big;
    if ws.rank.(big) = ws.rank.(small) then ws.rank.(big) <- ws.rank.(big) + 1;
    set_bit ws.parity big (get_bit ws.parity big <> get_bit ws.parity small);
    if ws.minnode.(small) < ws.minnode.(big) then
      ws.minnode.(big) <- ws.minnode.(small);
    rev_append_into ws ~small ~big
  end

(* Grow root [r]'s cluster by half an edge along its whole boundary.
   Edges that become fully grown are erased (their endpoints' clusters
   merge) and leave the boundary, as do edges already erased; the rest
   stay, in their order, in front of the (possibly new) root's list. *)
let grow ws r =
  let cur = ref ws.head.(r) in
  ws.head.(r) <- -1;
  let keep_head = ref (-1) and keep_tail = ref (-1) in
  while !cur >= 0 do
    let c = !cur in
    cur := ws.next.(c);
    let e = c lsr 1 in
    let gr = Char.code (Bytes.unsafe_get ws.growth e) in
    if gr < 2 then begin
      ws.progressed <- true;
      Bytes.unsafe_set ws.growth e (Char.unsafe_chr (gr + 1));
      if gr = 1 then begin
        ws.erased.(ws.nerased) <- e;
        ws.nerased <- ws.nerased + 1;
        touch ws ws.src.(e);
        touch ws ws.dst.(e);
        union ws ws.src.(e) ws.dst.(e)
      end
      else begin
        if !keep_tail < 0 then keep_head := c else ws.next.(!keep_tail) <- c;
        keep_tail := c
      end
    end
  done;
  if !keep_tail >= 0 then begin
    let r' = find ws r in
    ws.next.(!keep_tail) <- ws.head.(r');
    ws.head.(r') <- !keep_head
  end

(* Replace [roots] by this round's odd roots, in descending order.
   Every odd cluster contains one that was odd a round earlier (merging
   even clusters cannot make an odd one), so the roots of the previous
   list cover them all. *)
let refresh_roots ws =
  let k = ref 0 in
  for i = 0 to ws.nroots - 1 do
    let r = find ws ws.roots.(i) in
    if get_bit ws.parity r && not (get_bit ws.listed r) then begin
      set_bit ws.listed r true;
      (* insertion into the descending prefix [0, k) *)
      let j = ref !k in
      while !j > 0 && ws.roots.(!j - 1) < r do
        ws.roots.(!j) <- ws.roots.(!j - 1);
        decr j
      done;
      ws.roots.(!j) <- r;
      incr k
    end
  done;
  ws.nroots <- !k;
  for i = 0 to !k - 1 do
    set_bit ws.listed ws.roots.(i) false
  done

(* Spanning tree of the erasure component containing [start] by DFS,
   then peel it leaves first, moving each remaining defect onto its
   parent through the tree edge, which is selected. *)
let peel_component ws ~defects start =
  let sp = ref 0 and k = ref 0 in
  ws.stack.(0) <- start;
  sp := 1;
  set_bit ws.visited start true;
  ws.parent_edge.(start) <- -1;
  set_bit ws.parity start defects.(start);
  while !sp > 0 do
    decr sp;
    let v = ws.stack.(!sp) in
    ws.order.(!k) <- v;
    incr k;
    let c = ref ws.init_head.(v) in
    while !c >= 0 do
      let e = !c lsr 1 in
      if Bytes.unsafe_get ws.growth e = '\002' then begin
        let w = if !c land 1 = 0 then ws.dst.(e) else ws.src.(e) in
        if not (get_bit ws.visited w) then begin
          set_bit ws.visited w true;
          ws.parent_edge.(w) <- e;
          ws.parent_node.(w) <- v;
          set_bit ws.parity w defects.(w);
          ws.stack.(!sp) <- w;
          incr sp
        end
      end;
      c := ws.init_next.(!c)
    done
  done;
  (* reversed pop order puts children before parents *)
  for i = !k - 1 downto 0 do
    let v = ws.order.(i) in
    if ws.parent_edge.(v) >= 0 && get_bit ws.parity v then begin
      ws.selected.(ws.nselected) <- ws.parent_edge.(v);
      ws.nselected <- ws.nselected + 1;
      set_bit ws.parity v false;
      let p = ws.parent_node.(v) in
      set_bit ws.parity p (not (get_bit ws.parity p))
    end
  done

(* Return every touched node, its incident cells and its incident edges
   to the pristine state — the whole workspace is then pristine, even
   after a decode that raised. *)
let reset ws =
  for i = 0 to ws.ntouched - 1 do
    let v = ws.touched_list.(i) in
    set_bit ws.touched v false;
    ws.parent.(v) <- v;
    ws.rank.(v) <- 0;
    ws.minnode.(v) <- v;
    set_bit ws.parity v false;
    set_bit ws.visited v false;
    ws.head.(v) <- ws.init_head.(v);
    let c = ref ws.init_head.(v) in
    while !c >= 0 do
      let cell = !c in
      ws.next.(cell) <- ws.init_next.(cell);
      Bytes.unsafe_set ws.growth (cell lsr 1) '\000';
      c := ws.init_next.(cell)
    done
  done;
  ws.ntouched <- 0;
  ws.nerased <- 0;
  ws.nselected <- 0

let decode ws ~defects =
  if Array.length defects <> ws.wn then invalid_arg "Match_graph.decode";
  reset ws;
  (* the defects are the first round's odd roots, listed descending *)
  ws.nroots <- 0;
  for i = ws.wn - 1 downto 0 do
    if defects.(i) then begin
      touch ws i;
      set_bit ws.parity i true;
      ws.roots.(ws.nroots) <- i;
      ws.nroots <- ws.nroots + 1
    end
  done;
  ws.progressed <- true;
  while ws.nroots > 0 do
    if not ws.progressed then
      invalid_arg "Match_graph.decode: odd defect parity in a component";
    ws.progressed <- false;
    for i = 0 to ws.nroots - 1 do
      let r = find ws ws.roots.(i) in
      if get_bit ws.parity r then grow ws r
    done;
    refresh_roots ws
  done;
  (* peeling on the erasure: one spanning tree per component, rooted
     at the component's smallest node *)
  for i = 0 to ws.nerased - 1 do
    let start = ws.minnode.(find ws ws.src.(ws.erased.(i))) in
    if not (get_bit ws.visited start) then peel_component ws ~defects start
  done

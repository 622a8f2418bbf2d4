(** The δ-buffer [Bᵢ] of Algorithm 1, the one home of the paper's two
    optimizations; {!Delta_sync} (non-ack modes) and {!Conflict_sync}
    both buffer through it.

    - {b BP}: each δ-group is tagged with its origin (the neighbor it came
      from, or the replica itself), and {!push} never sends an origin its
      own δ-groups (line 11, right column).
    - {b RR}: {!extract} keeps only [Δ(d, xᵢ)], the part of a received
      δ-group that strictly inflates the local state (lines 15–16).

    The buffer is not a list of entries but one joined δ-group per origin
    (kept only under BP, the sole reader of origin tags) plus the running
    join of all of them.  {!add} costs one join (two under BP) whatever
    the buffer length, and {!push} derives every "all but your own" group
    with O(origins) prefix/suffix joins per tick instead of a fold over
    the buffer per neighbor.  Ack mode keeps its own seq-tagged list in
    {!Delta_sync}: selective eviction needs a sequence number per entry. *)

module Make (C : Protocol_intf.CRDT) = struct
  module Origins = Map.Make (Int)

  type t = {
    bp : bool;
    by_origin : C.t Origins.t;  (** origin ↦ joined δ-group; empty without BP. *)
    all : C.t;  (** join of every δ-group added since the last {!clear}. *)
  }

  let empty ~bp = { bp; by_origin = Origins.empty; all = C.bottom }
  let is_empty b = C.is_bottom b.all && Origins.is_empty b.by_origin

  (* An empty buffer is returned as is, so an idle tick allocates
     nothing. *)
  let clear b = if is_empty b then b else empty ~bp:b.bp

  (* The buffer half of fun store(s, o), lines 18–20. *)
  let add b ~origin d =
    let join = function None -> Some d | Some g -> Some (C.join g d) in
    let by_origin =
      if b.bp then Origins.update origin join b.by_origin else b.by_origin
    in
    { b with by_origin; all = C.join b.all d }

  (* What a received δ-group [d] leaves to store against the local state
     [x]: RR keeps Δ(d, x), classic keeps [d] whole unless d ⊑ x. *)
  let extract ~rr d x =
    let d = if rr then C.delta d x else if C.leq d x then C.bottom else d in
    if C.is_bottom d then None else Some d

  (* For each origin, the join of every {e other} origin's δ-group. *)
  let exclusive_groups by_origin =
    let arr = Array.of_list (Origins.bindings by_origin) in
    let k = Array.length arr in
    let suffix = Array.make (k + 1) C.bottom in
    for i = k - 1 downto 0 do
      suffix.(i) <- C.join (snd arr.(i)) suffix.(i + 1)
    done;
    let excl = ref Origins.empty and prefix = ref C.bottom in
    for i = 0 to k - 1 do
      let o, g = arr.(i) in
      excl := Origins.add o (C.join !prefix suffix.(i + 1)) !excl;
      prefix := C.join !prefix g
    done;
    !excl

  (* One tick's [(neighbor, mk group)] sends: every non-origin neighbor
     shares one message of the whole buffer (built and measured once);
     under BP an origin gets all but its own, or nothing if that is
     bottom. *)
  let push b ~neighbors mk =
    if C.is_bottom b.all then []
    else
      let whole = mk b.all in
      let excl = if b.bp then exclusive_groups b.by_origin else Origins.empty in
      List.filter_map
        (fun j ->
          match Origins.find_opt j excl with
          | Some g -> if C.is_bottom g then None else Some (j, mk g)
          | None -> Some (j, whole))
        neighbors

  (* Resident size: the per-origin δ-groups under BP, else the join. *)
  let size f b =
    if b.bp then Origins.fold (fun _ g acc -> acc + f g) b.by_origin 0
    else f b.all

  let weight = size C.weight
  let byte_size = size C.byte_size
end

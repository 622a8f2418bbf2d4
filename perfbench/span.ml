(* Span recorder for the traced run.

   Every wrapped call opens a span on the calling domain and closes it
   when the call returns.  Spans nest: a span's self time is its
   duration minus the part its child spans cover, and self times are
   folded into per-function aggregates as each span closes, so the
   aggregates stay exact however many spans are made.  The first
   [log_cap] spans of each domain are also kept verbatim (function,
   start, end, parent, replica, round) and written out by [dump] when
   the benchmark ends.

   Time comes from bechamel's monotonic clock (ns); allocation is the
   change of [Gc.minor_words] across the call, which OCaml 5 counts per
   domain. *)

type layer = Core | Proto | Wire | Store | Retwis | Bench | Engine

let layer_name = function
  | Core -> "core"
  | Proto -> "proto"
  | Wire -> "wire"
  | Store -> "store"
  | Retwis -> "retwis"
  | Bench -> "bench"
  | Engine -> "engine"

let layers = [ Core; Proto; Wire; Store; Retwis; Bench; Engine ]

(* The wrapped functions, one id each. *)
let fns =
  [|
    (Core, "join"); (Core, "leq"); (Core, "equal"); (Core, "delta");
    (Core, "delta_mutate"); (Core, "mutate"); (Core, "decompose");
    (Core, "fold_decompose");
    (Proto, "local_update"); (Proto, "tick"); (Proto, "handle");
    (Proto, "state"); (Proto, "load"); (Proto, "equal_states");
    (Wire, "encode"); (Wire, "decode"); (Wire, "message_wire_bytes");
    (Wire, "state_encode"); (Wire, "state_decode");
    (Store, "open"); (Store, "append_delta"); (Store, "checkpoint");
    (Store, "close");
    (Retwis, "ops");
    (Bench, "observe"); (Bench, "ops"); (Bench, "persist");
    (Engine, "run");
  |]

let fn_count = Array.length fns

let fn layer name =
  let rec go i =
    if i = fn_count then invalid_arg ("Span.fn: " ^ name)
    else
      let l, n = fns.(i) in
      if l = layer && String.equal n name then i else go (i + 1)
  in
  go 0

let now () = Int64.to_int (Monotonic_clock.now ())

(* Whether spans closing now fold into the aggregates: set around each
   workload's measured phase. *)
let measuring = Atomic.make false

(* Whether the plain calls the benchmark makes itself (store, persist,
   ops callbacks) open spans at all; the wrapped functors always do. *)
let on = ref false

let max_depth = 256
let log_cap = 32_768
let log_fields = 6

type dom = {
  id : int;
  mutable depth : int;
  st_fn : int array;
  st_t0 : int array;
  st_child : int array;
  st_a0 : float array;
  st_achild : float array;
  st_idx : int array;
  calls : int array;
  self_ns : int array;
  total_ns : int array;
  self_alloc : float array;
  mutable logged : int;
  mutable unlogged : int;
  log : int array;
  mutable replica : int;
  mutable round : int;
}

let registry = ref []
let registry_lock = Mutex.create ()

let new_dom () =
  Mutex.lock registry_lock;
  let d =
    {
      id = List.length !registry;
      depth = 0;
      st_fn = Array.make max_depth 0;
      st_t0 = Array.make max_depth 0;
      st_child = Array.make max_depth 0;
      st_a0 = Array.make max_depth 0.;
      st_achild = Array.make max_depth 0.;
      st_idx = Array.make max_depth (-1);
      calls = Array.make fn_count 0;
      self_ns = Array.make fn_count 0;
      total_ns = Array.make fn_count 0;
      self_alloc = Array.make fn_count 0.;
      logged = 0;
      unlogged = 0;
      log = Array.make (log_cap * log_fields) 0;
      replica = -1;
      round = -1;
    }
  in
  registry := d :: !registry;
  Mutex.unlock registry_lock;
  d

let key = Domain.DLS.new_key new_dom
let dom () = Domain.DLS.get key

(* The replica and tick/round the calling domain is working for: the
   shared identifier spans carry. *)
let set_context ~replica ~round =
  let d = dom () in
  d.replica <- replica;
  d.round <- round

let enter f =
  let d = dom () in
  let k = d.depth in
  if k >= max_depth then failwith "Span: nesting too deep";
  d.st_fn.(k) <- f;
  d.st_child.(k) <- 0;
  d.st_achild.(k) <- 0.;
  d.st_a0.(k) <- Gc.minor_words ();
  if d.logged < log_cap then begin
    let i = d.logged in
    d.logged <- i + 1;
    d.st_idx.(k) <- i;
    let o = i * log_fields in
    d.log.(o) <- f;
    d.log.(o + 3) <- (if k > 0 then d.st_idx.(k - 1) else -1);
    d.log.(o + 4) <- d.replica;
    d.log.(o + 5) <- d.round
  end
  else begin
    d.unlogged <- d.unlogged + 1;
    d.st_idx.(k) <- -1
  end;
  d.depth <- k + 1;
  let t0 = now () in
  d.st_t0.(k) <- t0;
  let i = d.st_idx.(k) in
  if i >= 0 then d.log.(i * log_fields + 1) <- t0;
  d

let leave d =
  let t1 = now () in
  let a1 = Gc.minor_words () in
  let k = d.depth - 1 in
  d.depth <- k;
  let f = d.st_fn.(k) in
  let dur = t1 - d.st_t0.(k) in
  let alloc = a1 -. d.st_a0.(k) in
  if Atomic.get measuring then begin
    d.calls.(f) <- d.calls.(f) + 1;
    d.total_ns.(f) <- d.total_ns.(f) + dur;
    d.self_ns.(f) <- d.self_ns.(f) + dur - d.st_child.(k);
    d.self_alloc.(f) <- d.self_alloc.(f) +. alloc -. d.st_achild.(k)
  end;
  if k > 0 then begin
    d.st_child.(k - 1) <- d.st_child.(k - 1) + dur;
    d.st_achild.(k - 1) <- d.st_achild.(k - 1) +. alloc
  end;
  let i = d.st_idx.(k) in
  if i >= 0 then d.log.(i * log_fields + 2) <- t1

let wrap f g x =
  let d = enter f in
  match g x with
  | r ->
      leave d;
      r
  | exception e ->
      leave d;
      raise e

let wrap2 f g x y =
  let d = enter f in
  match g x y with
  | r ->
      leave d;
      r
  | exception e ->
      leave d;
      raise e

let wrap3 f g x y z =
  let d = enter f in
  match g x y z with
  | r ->
      leave d;
      r
  | exception e ->
      leave d;
      raise e

(* [time f g x] spans [g x] only when the benchmark's own calls are
   traced; otherwise it is a plain call. *)
let time f g x = if !on then wrap f g x else g x

(* A codec whose [write]/[read] fields are spans. *)
let codec ~write ~read (c : 'a Crdt_wire.Codec.t) : 'a Crdt_wire.Codec.t =
  {
    Crdt_wire.Codec.write = (fun buf v -> wrap2 write c.write buf v);
    read = (fun r -> wrap read c.read r);
  }

(* Forget every aggregate and kept span (between workloads run in one
   process). *)
let reset () =
  List.iter
    (fun d ->
      Array.fill d.calls 0 fn_count 0;
      Array.fill d.self_ns 0 fn_count 0;
      Array.fill d.total_ns 0 fn_count 0;
      Array.fill d.self_alloc 0 fn_count 0.;
      d.logged <- 0;
      d.unlogged <- 0)
    !registry

(* Aggregates over every domain, per function. *)
type totals = {
  t_calls : int array;
  t_self_ns : int array;
  t_total_ns : int array;
  t_self_alloc : float array;
}

let totals () =
  let t =
    {
      t_calls = Array.make fn_count 0;
      t_self_ns = Array.make fn_count 0;
      t_total_ns = Array.make fn_count 0;
      t_self_alloc = Array.make fn_count 0.;
    }
  in
  List.iter
    (fun d ->
      for f = 0 to fn_count - 1 do
        t.t_calls.(f) <- t.t_calls.(f) + d.calls.(f);
        t.t_self_ns.(f) <- t.t_self_ns.(f) + d.self_ns.(f);
        t.t_total_ns.(f) <- t.t_total_ns.(f) + d.total_ns.(f);
        t.t_self_alloc.(f) <- t.t_self_alloc.(f) +. d.self_alloc.(f)
      done)
    !registry;
  t

let fold_layer layer g acc =
  let acc = ref acc in
  Array.iteri (fun f (l, _) -> if l = layer then acc := g !acc f) fns;
  !acc

let layer_self_ns t layer = fold_layer layer (fun acc f -> acc + t.t_self_ns.(f)) 0
let layer_calls t layer = fold_layer layer (fun acc f -> acc + t.t_calls.(f)) 0

let layer_alloc t layer =
  fold_layer layer (fun acc f -> acc +. t.t_self_alloc.(f)) 0.

(* Write every kept span as one TSV line: domain, layer, function,
   start and end (ns), parent span index on the same domain (-1 for
   none), replica, tick/round.  Returns (kept, not kept). *)
let dump path =
  let oc = open_out path in
  output_string oc "domain\tindex\tlayer\tfn\tstart_ns\tend_ns\tparent\treplica\tround\n";
  let kept = ref 0 and dropped = ref 0 in
  List.iter
    (fun d ->
      dropped := !dropped + d.unlogged;
      for i = 0 to d.logged - 1 do
        let o = i * log_fields in
        let l, name = fns.(d.log.(o)) in
        Printf.fprintf oc "%d\t%d\t%s\t%s\t%d\t%d\t%d\t%d\t%d\n" d.id i
          (layer_name l) name d.log.(o + 1) d.log.(o + 2) d.log.(o + 3)
          d.log.(o + 4) d.log.(o + 5);
        incr kept
      done)
    (List.rev !registry);
  close_out oc;
  (!kept, !dropped)

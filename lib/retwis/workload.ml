(** Retwis workload generator (Table II).

    Operation mix: 15 % Follow (1 CRDT update), 35 % Post Tweet
    (1 + #followers updates), 50 % Timeline (read-only, 0 updates).
    Which user an operation targets follows a Zipf distribution whose
    coefficient sweeps 0.5 (low contention) → 1.5 (high contention).

    Tweet identifiers are 31 B and contents 270 B, as in the paper. *)

type stats = {
  mutable follows : int;
  mutable posts : int;
  mutable timeline_reads : int;
  mutable updates : int;  (** total CRDT updates issued. *)
  mutable fanout : int;  (** timeline deliveries caused by posts. *)
}

type t = {
  users : int;
  zipf : Crdt_sim.Zipf.t;
  rng : Random.State.t;
  stats : stats;
  mutable next_tweet : int;
}

let make ~seed ~users ~coefficient =
  let rng = Random.State.make [| seed; 0x5e7 |] in
  {
    users;
    zipf = Crdt_sim.Zipf.make ~rng ~s:coefficient ~n:users;
    rng;
    stats =
      { follows = 0; posts = 0; timeline_reads = 0; updates = 0; fanout = 0 };
    next_tweet = 0;
  }

let stats t = t.stats

(* 31-byte tweet identifier and 270-byte content, the sizes reported from
   Facebook's general-purpose key-value store analysis [27]. *)
let tweet_id t node =
  let raw = Printf.sprintf "t-%d-%d-%d" node t.next_tweet t.users in
  t.next_tweet <- t.next_tweet + 1;
  let padded = raw ^ String.make 31 'x' in
  String.sub padded 0 31

let content = String.make 270 'c'

(** Operations performed by [node] in [round], as (user, operation)
    pairs.  [followers_of] reads the node's local replica (posting fans
    out to the author's currently known followers); [timeline_of] performs
    the read-only Timeline fetch.  One application-level operation per
    node per round. *)
let raw_ops t ~round ~node ~followers_of ~timeline_of :
    (int * User_state.op) list =
  let target () = Crdt_sim.Zipf.sample t.zipf in
  let roll = Random.State.float t.rng 1.0 in
  if roll < 0.15 then begin
    (* Follow: user a follows user b, updating b's follower set. *)
    let follower = Random.State.int t.rng t.users in
    let followee = target () in
    t.stats.follows <- t.stats.follows + 1;
    t.stats.updates <- t.stats.updates + 1;
    [ (followee, User_state.Follow follower) ]
  end
  else if roll < 0.50 then begin
    (* Post: write to the author's wall and to every follower's
       timeline. *)
    let author = target () in
    let id = tweet_id t node in
    let timestamp = (round * 1_000_003) + (node * 131) + t.next_tweet in
    let fans : int list = followers_of author in
    t.stats.posts <- t.stats.posts + 1;
    t.stats.fanout <- t.stats.fanout + List.length fans;
    t.stats.updates <- t.stats.updates + 1 + List.length fans;
    (author, User_state.Post { tweet_id = id; content })
    :: List.map
         (fun fan ->
           (fan, User_state.Timeline_add { timestamp; tweet_id = id }))
         fans
  end
  else begin
    (* Timeline: fetch the 10 most recent tweets — read-only. *)
    let reader = target () in
    timeline_of reader;
    t.stats.timeline_reads <- t.stats.timeline_reads + 1;
    []
  end

(** Specialization of {!raw_ops} reading from a sharded per-user replica
    (an association of user id to {!User_state.t}, as produced by
    [Crdt_proto.Sharded]). *)
let ops_sharded t :
    ((int * User_state.t) list, int * User_state.op) Crdt_engine.Workload.gen =
 fun ~round ~node (objects : (int * User_state.t) list) ->
  let find user =
    match List.assoc_opt user objects with
    | Some st -> st
    | None -> User_state.bottom
  in
  raw_ops t ~round ~node
    ~followers_of:(fun user -> User_state.followers (find user))
    ~timeline_of:(fun user ->
      ignore (User_state.recent_timeline (find user)))

(** Measured operation mix, for reproducing Table II. *)
let mix t =
  let s = t.stats in
  let total = s.follows + s.posts + s.timeline_reads in
  let pct x = 100. *. float_of_int x /. float_of_int (max 1 total) in
  ( pct s.follows,
    pct s.posts,
    pct s.timeline_reads,
    if s.posts = 0 then 0.
    else 1. +. (float_of_int s.fanout /. float_of_int s.posts) )

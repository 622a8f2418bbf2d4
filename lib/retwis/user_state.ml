(** Per-user replicated state for the Retwis application (Section V-C).

    Each user owns three objects, composed here into one lattice so that
    a user is a single CRDT object ({!Sharded_store} replicates one per
    user) and every synchronization protocol applies unchanged:

    - {b followers}: a GSet of user ids;
    - {b wall}: a GMap from tweet identifiers to tweet content
      (LWW registers — content is written once);
    - {b timeline}: a GMap from tweet timestamps to tweet identifiers.

    The paper uses tweet identifiers of 31 B and contents of 270 B,
    representative of Facebook's key-value workloads [27]; the workload
    generator follows those sizes. *)

open Crdt_core

module Followers = Gset.Of_int
module Wall = Gmap.Make (Gmap.String_key) (Lww_register)
module Timeline = Gmap.Make (Gmap.Int_key) (Lww_register)
module Rest = Product.Make (Wall) (Timeline)
module P = Product.Make (Followers) (Rest)
include P

type op =
  | Follow of int  (** the given user starts following this user. *)
  | Post of { tweet_id : string; content : string }
      (** write a tweet to this user's wall. *)
  | Timeline_add of { timestamp : int; tweet_id : string }
      (** a followed user's tweet lands on this user's timeline. *)

let mutate op i ((followers, (wall, timeline)) : t) : t =
  match op with
  | Follow who -> (Followers.add who i followers, (wall, timeline))
  | Post { tweet_id; content } ->
      ( followers,
        (Wall.apply tweet_id (Lww_register.Write content) i wall, timeline) )
  | Timeline_add { timestamp; tweet_id } ->
      ( followers,
        (wall, Timeline.apply timestamp (Lww_register.Write tweet_id) i timeline)
      )

let delta_mutate op i ((followers, (wall, timeline)) : t) : t =
  match op with
  | Follow who ->
      (Followers.delta_mutate who i followers, Rest.bottom)
  | Post { tweet_id; content } ->
      ( Followers.bottom,
        ( Wall.apply_delta tweet_id (Lww_register.Write content) i wall,
          Timeline.bottom ) )
  | Timeline_add { timestamp; tweet_id } ->
      ( Followers.bottom,
        ( Wall.bottom,
          Timeline.apply_delta timestamp (Lww_register.Write tweet_id) i
            timeline ) )

let prepare op _ _ = op

let op_weight = function Follow _ | Post _ | Timeline_add _ -> 1

let op_byte_size = function
  | Follow _ -> 8
  | Post { tweet_id; content } -> String.length tweet_id + String.length content
  | Timeline_add { tweet_id; _ } -> 8 + String.length tweet_id

let op_codec =
  let open Crdt_wire.Codec in
  union ~name:"user_state_op"
    [
      case 0 int
        (function Follow who -> Some who | Post _ | Timeline_add _ -> None)
        (fun who -> Follow who);
      case 1 (pair string string)
        (function
          | Post { tweet_id; content } -> Some (tweet_id, content)
          | Follow _ | Timeline_add _ -> None)
        (fun (tweet_id, content) -> Post { tweet_id; content });
      case 2 (pair int string)
        (function
          | Timeline_add { timestamp; tweet_id } -> Some (timestamp, tweet_id)
          | Follow _ | Post _ -> None)
        (fun (timestamp, tweet_id) -> Timeline_add { timestamp; tweet_id });
    ]

let pp_op ppf = function
  | Follow who -> Format.fprintf ppf "follow(%d)" who
  | Post { tweet_id; _ } -> Format.fprintf ppf "post(%s)" tweet_id
  | Timeline_add { timestamp; tweet_id } ->
      Format.fprintf ppf "timeline(%d,%s)" timestamp tweet_id

(** Read accessors used by the workload generator and examples. *)

let followers ((f, _) : t) = Followers.elements f
let wall ((_, (w, _)) : t) = w
let timeline ((_, (_, tl)) : t) = tl

(** The 10 most recent tweet ids on the user's timeline, newest first
    (the paper's Timeline operation fetches the 10 most recent tweets). *)
let recent_timeline ?(limit = 10) (state : t) =
  let entries = Timeline.bindings (timeline state) in
  let newest_first =
    List.sort (fun (a, _) (b, _) -> Int.compare b a) entries
  in
  List.filteri (fun idx _ -> idx < limit) newest_first
  |> List.map (fun (ts, reg) -> (ts, Lww_register.value reg))

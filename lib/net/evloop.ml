(* Readiness event loop: incremental interest registration behind a
   backend seam.  See evloop.mli for the contract. *)

module type BACKEND = sig
  type t

  val name : string
  val create : unit -> t
  val add : t -> ?read:bool -> Unix.file_descr -> unit
  val remove : t -> Unix.file_descr -> unit
  val set_write : t -> Unix.file_descr -> bool -> unit

  val wait :
    t -> timeout:float -> Unix.file_descr list * Unix.file_descr list

  val close : t -> unit
end

module Select : BACKEND = struct
  type interest = { mutable read : bool; mutable write : bool }

  (* The fd lists handed to [Unix.select] are caches over [interests]:
     registration changes only mark them dirty, and [wait] rebuilds a
     list at most once per actual change — steady-state passes reuse
     the same lists with zero bookkeeping. *)
  type t = {
    interests : (Unix.file_descr, interest) Hashtbl.t;
    mutable read_fds : Unix.file_descr list;
    mutable write_fds : Unix.file_descr list;
    mutable read_dirty : bool;
    mutable write_dirty : bool;
  }

  let name = "select"

  let create () =
    {
      interests = Hashtbl.create 16;
      read_fds = [];
      write_fds = [];
      read_dirty = false;
      write_dirty = false;
    }

  let add t ?(read = true) fd =
    match Hashtbl.find_opt t.interests fd with
    | Some i ->
        if i.read <> read then begin
          i.read <- read;
          t.read_dirty <- true
        end
    | None ->
        Hashtbl.replace t.interests fd { read; write = false };
        if read then t.read_dirty <- true

  let remove t fd =
    match Hashtbl.find_opt t.interests fd with
    | None -> ()
    | Some i ->
        Hashtbl.remove t.interests fd;
        if i.read then t.read_dirty <- true;
        if i.write then t.write_dirty <- true

  let set_write t fd want =
    match Hashtbl.find_opt t.interests fd with
    | None -> ()
    | Some i ->
        if i.write <> want then begin
          i.write <- want;
          t.write_dirty <- true
        end

  let refresh t =
    if t.read_dirty then begin
      t.read_fds <-
        Hashtbl.fold
          (fun fd i acc -> if i.read then fd :: acc else acc)
          t.interests [];
      t.read_dirty <- false
    end;
    if t.write_dirty then begin
      t.write_fds <-
        Hashtbl.fold
          (fun fd i acc -> if i.write then fd :: acc else acc)
          t.interests [];
      t.write_dirty <- false
    end

  let wait t ~timeout =
    refresh t;
    match Unix.select t.read_fds t.write_fds [] timeout with
    | r, w, _ -> (r, w)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])

  let close _ = ()
end

type t = Loop : (module BACKEND with type t = 'a) * 'a -> t

let make (module B : BACKEND) = Loop ((module B), B.create ())
let backend_name (Loop ((module B), _)) = B.name
let add (Loop ((module B), s)) ?read fd = B.add s ?read fd
let remove (Loop ((module B), s)) fd = B.remove s fd
let set_write (Loop ((module B), s)) fd want = B.set_write s fd want
let wait (Loop ((module B), s)) ~timeout = B.wait s ~timeout
let close (Loop ((module B), s)) = B.close s

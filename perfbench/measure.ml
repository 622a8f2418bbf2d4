(* Clocks, process counters, host provenance and small statistics. *)

(* Seconds on bechamel's monotonic clock: ns resolution, never steps. *)
let wall () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Process user+sys CPU seconds, all domains. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      go []

(* Peak resident set size of this process (VmHWM), MiB. *)
let peak_rss_mb () =
  List.fold_left
    (fun acc l ->
      match String.split_on_char ':' l with
      | [ "VmHWM"; v ] -> (
          match
            List.filter (( <> ) "") (String.split_on_char ' ' (String.trim v))
          with
          | kb :: _ -> float_of_string kb /. 1024.
          | [] -> acc)
      | _ -> acc)
    0.
    (read_lines "/proc/self/status")

let first_line path = match read_lines path with l :: _ -> l | [] -> "unknown"

let host_os () =
  first_line "/proc/sys/kernel/ostype" ^ " "
  ^ first_line "/proc/sys/kernel/osrelease"

let cores () = Domain.recommended_domain_count ()

(* Filesystem type holding [dir]: the longest mount point that prefixes
   its absolute path, from /proc/self/mountinfo. *)
let fs_type dir =
  let dir =
    if Filename.is_relative dir then Filename.concat (Sys.getcwd ()) dir
    else dir
  in
  let prefix mp =
    mp = "/"
    || String.length dir >= String.length mp
       && String.sub dir 0 (String.length mp) = mp
       && (String.length dir = String.length mp
          || dir.[String.length mp] = '/')
  in
  let best = ref ("", "unknown") in
  List.iter
    (fun l ->
      match String.split_on_char ' ' l with
      | _ :: _ :: _ :: _ :: mp :: rest -> (
          let rec after_dash = function
            | "-" :: fstype :: _ -> Some fstype
            | _ :: r -> after_dash r
            | [] -> None
          in
          match after_dash rest with
          | Some fstype
            when prefix mp && String.length mp >= String.length (fst !best) ->
              best := (mp, fstype)
          | _ -> ())
      | _ -> ())
    (read_lines "/proc/self/mountinfo");
  snd !best

let rec mkdirs d =
  if not (Sys.file_exists d) then begin
    mkdirs (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let memory_backed fstype =
  List.mem fstype [ "tmpfs"; "ramfs"; "devtmpfs"; "hugetlbfs" ]

(* Growable float sample set. *)
type samples = { mutable buf : float array; mutable n : int }

let samples () = { buf = Array.make 1024 0.; n = 0 }

let add s x =
  if s.n = Array.length s.buf then begin
    let b = Array.make (2 * s.n) 0. in
    Array.blit s.buf 0 b 0 s.n;
    s.buf <- b
  end;
  s.buf.(s.n) <- x;
  s.n <- s.n + 1

let count s = s.n

let append dst src =
  for i = 0 to src.n - 1 do
    add dst src.buf.(i)
  done

(* Nearest-rank percentile, [p] in [0, 100]. *)
let percentile s p =
  if s.n = 0 then 0.
  else begin
    let a = Array.sub s.buf 0 s.n in
    Array.sort Float.compare a;
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int s.n)) in
    a.(max 0 (min (s.n - 1) (rank - 1)))
  end

(* Samples strictly above the [p]th percentile's rank: the guard asks
   for at least ten. *)
let beyond s p =
  s.n - int_of_float (Float.ceil (p /. 100. *. float_of_int s.n))

let median = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* JSON number with all its digits. *)
let num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

(* Plain-text reporting for the benchmark harness: section banners and
   aligned tables, one section per paper table/figure. *)

let section id title =
  Printf.printf "\n%s\n== %-6s %s\n%s\n" (String.make 78 '=') id title
    (String.make 78 '=')

let note fmt = Printf.ksprintf (fun s -> Printf.printf "   %s\n" s) fmt

(* Render rows with the first column left-aligned and the rest
   right-aligned, sized to fit. *)
let table ~header rows =
  let cols = List.length header in
  let all = header :: rows in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init cols width in
  let print_row row =
    List.iteri
      (fun c cell ->
        let w = List.nth widths c in
        if c = 0 then Printf.printf "  %-*s" w cell
        else Printf.printf "  %*s" w cell)
      row;
    print_newline ()
  in
  print_row header;
  Printf.printf "  %s\n"
    (String.make (List.fold_left ( + ) (2 * (cols - 1)) widths) '-');
  List.iter print_row rows

(* Host identity stamped into every BENCH_*.json: readers comparing
   artifacts across machines need the provenance in the artifact
   itself, not in whoever remembers which box ran it. *)
let host_os () =
  let uname () =
    try
      let ic = Unix.open_process_in "uname -sr 2>/dev/null" in
      let line = try String.trim (input_line ic) with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> Some line
      | _ | (exception Unix.Unix_error _) -> None
    with Unix.Unix_error _ | Sys_error _ -> None
  in
  match uname () with Some s -> s | None -> Sys.os_type

let host_cores () = Domain.recommended_domain_count ()

let host_json () =
  Printf.sprintf {|{"cores": %d, "os": %S, "ocaml_version": %S}|}
    (host_cores ()) (host_os ()) Sys.ocaml_version

(* Process CPU seconds per call of [f], calling it back to back in
   doubling batches until the calls together have used at least [floor]
   seconds, so Sys.time's resolution and per-batch overhead vanish in
   the total. *)
let cpu_per_run ~floor f =
  let rec go ~calls ~spent batch =
    let t0 = Sys.time () in
    for _ = 1 to batch do
      ignore (Sys.opaque_identity (f ()))
    done;
    let calls = calls + batch and spent = spent +. (Sys.time () -. t0) in
    if spent < floor && calls < 20_000_000 then go ~calls ~spent (2 * batch)
    else spent /. float_of_int calls
  in
  go ~calls:0 ~spent:0. 1

(* Median and interquartile range of repeated measurements (linear
   interpolation between order statistics). *)
type spread = { median : float; iqr : float; reps : int }

let spread samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  let q p =
    let pos = p *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (lo + 1) (n - 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))
  in
  { median = q 0.5; iqr = q 0.75 -. q 0.25; reps = n }

let iqr_over_median s = s.iqr /. s.median

let f2 x = Printf.sprintf "%.2f" x
let f1 x = Printf.sprintf "%.1f" x
let pct x = Printf.sprintf "%.1f%%" (100. *. x)
let i = string_of_int

let bytes x =
  if x >= 1_073_741_824. then Printf.sprintf "%.2f GB" (x /. 1_073_741_824.)
  else if x >= 1_048_576. then Printf.sprintf "%.2f MB" (x /. 1_048_576.)
  else if x >= 1024. then Printf.sprintf "%.1f kB" (x /. 1024.)
  else Printf.sprintf "%.0f B" x

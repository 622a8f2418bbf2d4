(* Benchmark harness entry point.

   Regenerates every table and figure of the paper's evaluation section
   (see DESIGN.md §5 and EXPERIMENTS.md).  With no arguments, runs the
   whole suite at the default scale; individual experiments can be
   selected by id, and the scale switched with --quick / --paper:

     dune exec bench/main.exe                 # everything, default scale
     dune exec bench/main.exe -- fig7 fig9    # selected experiments
     dune exec bench/main.exe -- --quick      # reduced scale (CI)
     dune exec bench/main.exe -- --paper      # paper-scale Retwis run
     dune exec bench/main.exe -- --json delta # also write BENCH_delta_kernels.json *)

let all_ids =
  [
    "fig1"; "tab1"; "fig7"; "fig8"; "fig9"; "fig10"; "tab2"; "fig11";
    "fig12"; "ablation"; "delta"; "sim_scale"; "fault_matrix"; "wire_size";
    "divergence_sweep"; "recovery_time";
  ]

let usage () =
  Printf.printf
    "usage: main.exe [--quick|--paper] [--json] [%s ...]\n(no ids = run \
     everything; --json makes `fig1` and `fig12` write \
     BENCH_cpu_overhead.json (BENCH_cpu_overhead_paper.json with --paper) \
     and `delta` / `sim_scale` / `fault_matrix` / `wire_size` / \
     `divergence_sweep` / `recovery_time` write BENCH_delta_kernels.json / \
     BENCH_sim_scale.json / BENCH_fault_matrix.json / BENCH_wire_size.json \
     / BENCH_divergence_sweep.json / BENCH_recovery_time.json)\n"
    (String.concat "|" all_ids)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if List.mem "--help" args || List.mem "-h" args then usage ()
  else begin
    let quick = List.mem "--quick" args in
    let json = List.mem "--json" args in
    let scale =
      if quick then Experiments.quick_scale
      else if List.mem "--paper" args then Experiments.paper_scale
      else Experiments.default_scale
    in
    let ids =
      match
        List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args
      with
      | [] -> all_ids
      | ids ->
          List.iter
            (fun id ->
              if not (List.mem id all_ids) then begin
                Printf.eprintf "unknown experiment id: %s\n" id;
                usage ();
                exit 1
              end)
            ids;
          ids
    in
    let t0 = Sys.time () in
    (* The CPU experiments' JSON sections, written together at the end. *)
    let cpu_sections = ref [] in
    let cpu id json = cpu_sections := (id, json) :: !cpu_sections in
    List.iter
      (fun id ->
        match id with
        | "fig1" -> cpu id (Experiments.fig1 scale)
        | "tab1" -> Experiments.table1 ()
        | "fig7" -> Experiments.fig7 scale
        | "fig8" -> Experiments.fig8 scale
        | "fig9" -> Experiments.fig9 scale
        | "fig10" -> Experiments.fig10 scale
        | "tab2" -> Experiments.table2 scale
        | "fig11" -> Experiments.fig11 scale
        | "fig12" -> cpu id (Experiments.fig12 scale)
        | "ablation" -> Experiments.ablation scale
        | "delta" ->
            Delta_kernels.run ~quick
              ?json_path:(if json then Some "BENCH_delta_kernels.json" else None)
              ()
        | "sim_scale" ->
            Sim_scale.run ~quick
              ?json_path:(if json then Some "BENCH_sim_scale.json" else None)
              ()
        | "fault_matrix" ->
            Fault_matrix.run ~quick
              ?json_path:(if json then Some "BENCH_fault_matrix.json" else None)
              ()
        | "wire_size" ->
            Wire_size.run ~quick
              ?json_path:(if json then Some "BENCH_wire_size.json" else None)
              ()
        | "divergence_sweep" ->
            Divergence_sweep.run ~quick
              ?json_path:
                (if json then Some "BENCH_divergence_sweep.json" else None)
              ()
        | "recovery_time" ->
            Recovery_time.run ~quick
              ?json_path:(if json then Some "BENCH_recovery_time.json" else None)
              ()
        | _ -> assert false)
      ids;
    if json && !cpu_sections <> [] then
      Experiments.write_cpu_json
        (if scale.Experiments.name = "paper" then "BENCH_cpu_overhead_paper.json"
         else "BENCH_cpu_overhead.json")
        scale (List.rev !cpu_sections);
    (* On stderr, so two commits' stdout can be compared with [cmp]. *)
    flush stdout;
    Printf.eprintf "\ntotal bench time: %.1fs\n%!" (Sys.time () -. t0)
  end

(* Prints the exact minor words per run of every pinned workload
   (Alloc_runs.pinned).  dune diffs the output against
   alloc_pins.expected: a hot path that starts allocating even one word
   per event moves a figure and fails `dune runtest`.  A change that
   moves one on purpose updates the file with `dune promote`. *)

let () =
  List.iter
    (fun (name, run) -> Printf.printf "%-20s %.0f\n" name (Alloc_runs.minor_words_of_run run))
    Alloc_runs.pinned

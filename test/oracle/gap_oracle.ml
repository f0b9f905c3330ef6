(* The original phase analysis: mark the reserved starts in a
   revolution-long table, then walk forward from every arrival offset
   to the next reserved slot — O(slots^2) per route. *)

let worst_wait ~slots starts =
  let reserved = Array.make slots false in
  List.iter (fun s -> reserved.(((s mod slots) + slots) mod slots) <- true) starts;
  let worst = ref 0 in
  for t = 0 to slots - 1 do
    let w = ref 0 in
    while not reserved.((t + !w) mod slots) do
      incr w
    done;
    if !w > !worst then worst := !w
  done;
  !worst

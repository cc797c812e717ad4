(* Wall-clock helpers shared by the workloads. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* [f ()] again and again until [seconds] have passed, at least once;
   the results in order. *)
let repeat ~seconds f =
  let t0 = now () in
  let rec loop acc =
    let acc = f () :: acc in
    if now () -. t0 >= seconds then List.rev acc else loop acc
  in
  loop []

(* Machine-speed normalization for end-to-end times.

   On a shared box the speed of the whole machine drifts by 10-40% over
   minutes, moving every time in a run together. The benchmark runs a
   fixed reference kernel right before each timed unit of work (a
   session, a fleet run's stage, an audit sweep, a set-up), outside its
   timing and, except before a fleet run's serial stage, after a full
   major collection, and
   scales the unit's time by [reference_s / kernel time]: a normalized
   second is a second on a machine where the kernel takes
   [reference_s].

   The kernel has two parts. Integer arithmetic with random access to a
   preallocated 512 KiB array tracks the core's speed. A small hash
   table, list and sort track the allocator and collector, whose speed
   under contention moves the program's times most. The second part
   allocates about a megabyte, which adds little collector work to the
   program's heap. Raw times are printed beside the normalized ones. *)

let buf = Array.make 65536 0

let kernel () =
  let t0 = Clock.now () in
  let x = ref 12345 in
  for _ = 1 to 300_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let i = !x land 65535 in
    Array.unsafe_set buf i (Array.unsafe_get buf i + 1)
  done;
  let h = Hashtbl.create 1024 in
  for i = 0 to 8_000 do
    Hashtbl.replace h ((i * 7919) land 0xffff) (string_of_int i)
  done;
  let l = List.init 8_000 (fun i -> (i * 31) mod 1000) in
  let a = Array.of_list l in
  Array.sort compare a;
  ignore (Sys.opaque_identity (h, a));
  Clock.now () -. t0

(* The kernel's median on the 2-CPU dev box at a quiet moment. *)
let reference_s = 0.004

type t = { mutable samples : float list }

let create () = { samples = [] }

let sample t =
  let s = kernel () in
  t.samples <- s :: t.samples;
  s

(* The median of nine samples, for a unit of work long enough (a
   fleet run's stage, an audit sweep) that nine kernels are a small
   share of it. *)
let steady t = Stats.median (List.init 9 (fun _ -> sample t))

(* [normalized s raw]: [raw] seconds measured right after the sample
   [s], in reference seconds. *)
let normalized s raw = raw *. reference_s /. s

let note t =
  Printf.sprintf "reference kernel median %.3f ms (%d samples, reference %.3f ms)"
    (1e3 *. Stats.median t.samples) (List.length t.samples) (1e3 *. reference_s)

(* [timed t f]: a full major collection, a fresh sample, then [f]
   timed; returns [f]'s result and the (sample, raw seconds) pair. *)
let timed t f =
  Gc.full_major ();
  let s = sample t in
  let t0 = Clock.now () in
  let r = f () in
  (r, (s, Clock.now () -. t0))

(* The median of (sample, raw) pairs, normalized and raw. *)
let median_normalized pairs = Stats.median (List.map (fun (s, raw) -> normalized s raw) pairs)
let median_raw pairs = Stats.median (List.map snd pairs)

(* [repeated t n ~same f]: [f] run [n] times, each [timed]. Each
   result after the first must be [same] as the first and is dropped at
   once, so no more than two are alive. Returns the first result and the
   (sample, raw seconds) pairs. *)
let repeated t n ~same f =
  let first, p = timed t f in
  let rest =
    List.init (n - 1) (fun _ ->
        let x, p = timed t f in
        if not (same first x) then failwith "set-up is not deterministic";
        p)
  in
  (first, p :: rest)

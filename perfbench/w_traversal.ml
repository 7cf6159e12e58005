(* Workload [traversal]: the Figure 11 kernels over a prepared 16 KiB
   buffer, one buffer per backend, rounds rotating which backend goes
   first. After set-up all the work is the check path. *)

module San = Giantsan_sanitizer.Sanitizer
module Traversal = Giantsan_workload.Traversal
module Memsim = Giantsan_memsim
module Rng = Giantsan_util.Rng
open Common

let size = 16384
let accesses = size / 8
let kernels = [| "forward"; "random"; "reverse" |]

(* passes of each kernel per backend per round *)
let passes = 4

type state = {
  sans : San.t array;  (** per backend, in [Common.backends] order *)
  bases : int array;
  random_seed : int;
  expected : int array;  (** native's checksum per kernel *)
  corrupt : bool;  (** self-test: expect a wrong checksum *)
}

let random_seed seed = mix seed 2

let kernel san ~base ~random_seed = function
  | 0 -> Traversal.forward san ~base ~size
  | 1 -> Traversal.random san ~seed:random_seed ~base ~size
  | _ -> Traversal.reverse san ~base ~size

let run_kernel st ix k = kernel st.sans.(ix) ~base:st.bases.(ix) ~random_seed:st.random_seed k

(* A fresh sanitizer for backend [ix] holding the seeded buffer. *)
let make_buffer words ix =
  let san = Backend.create backends.(ix) Memsim.Heap.default_config in
  let base = Traversal.prepare san ~size in
  let arena = Memsim.Heap.arena san.San.heap in
  Array.iteri (fun j w -> Memsim.Arena.store arena ~addr:(base + (8 * j)) ~width:8 w) words;
  (san, base)

let seeded_words seed =
  let rng = Rng.create (mix seed 1) in
  Array.init accesses (fun _ -> Rng.int rng (1 lsl 30))

let setup ~seed ~corrupt =
  let words = seeded_words seed in
  let built = Array.init n_backends (make_buffer words) in
  let st =
    {
      sans = Array.map fst built;
      bases = Array.map snd built;
      random_seed = random_seed seed;
      expected = [||];
      corrupt;
    }
  in
  let expected = Array.init 3 (fun k -> (run_kernel st native_ix k).Traversal.t_checksum) in
  if corrupt then expected.(0) <- expected.(0) + 1;
  { st with expected }

let measure st ~budget_ns ~spans acc =
  for_budget acc ~budget_ns (fun round ->
      Array.iter
        (fun ix ->
          for k = 0 to 2 do
            for _ = 1 to passes do
              let t0 = now_ns () in
              let res =
                Spans.unit_span spans
                  (Printf.sprintf "traversal.%s.%s" kernels.(k) (backend_name ix))
                  (fun () -> run_kernel st ix k)
              in
              let ns = now_ns () - t0 in
              charge acc ix ~key:k ~units:accesses ~ns;
              if ix = giantsan_ix then sample_latency acc ~key:k ns;
              check acc
                (res.Traversal.t_checksum = st.expected.(k) && res.Traversal.t_reports = 0)
                (fun () ->
                  Printf.sprintf "traversal %s under %s: checksum %d (expected %d), %d reports"
                    kernels.(k) (backend_name ix) res.Traversal.t_checksum st.expected.(k)
                    res.Traversal.t_reports)
            done
          done)
        (rotation round))

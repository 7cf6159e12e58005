module Shadow_mem = Giantsan_shadow.Shadow_mem

let max_run = 63

(* Every run ends in the same descending ramp max_run, .., 2, 1; positions
   further than [max_run] from the end saturate at [max_run]. One fixed
   ramp template plus a fill covers any run length in two batched writes. *)
let ramp =
  Bytes.init max_run (fun i -> Char.chr (max_run - i))

let poison_good_run m ~first_seg ~count =
  if count > 0 then begin
    let tail = min count max_run in
    Shadow_mem.fill_range m ~lo:first_seg ~hi:(first_seg + count - tail) max_run;
    Shadow_mem.blit_pattern m ~lo:(first_seg + count - tail) ~pattern:ramp
      ~pat_off:(max_run - tail) ~len:tail
  end

let check m ~l ~r =
  assert (l land 7 = 0);
  if r <= l then true
  else begin
    let last_seg = (r - 1) / 8 in
    (* hop whole-good runs until the final (possibly partial) segment *)
    let rec hop p =
      if p > last_seg then true
      else begin
        let v = Shadow_mem.load m p in
        if v >= 1 && v <= max_run then
          if p + v > last_seg then
            (* the run covers through the last segment; the tail bytes of
               the last segment only matter when r is unaligned, and a good
               segment covers them too *)
            true
          else hop (p + v)
        else if p = last_seg then
          (* partial segment allowed only at the very end *)
          State_code.addressable_in_segment v >= ((r - 1) land 7) + 1
        else false
      end
    in
    hop (l / 8)
  end

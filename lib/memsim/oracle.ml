type byte_state = Unallocated | Addressable | Redzone | Freed

type t = {
  flags : Bytes.t;  (* one state byte per arena byte *)
  owners : Memobj.t option array;  (* one owner slot per 8-byte segment *)
  size : int;
}

let code = function
  | Unallocated -> '\000'
  | Addressable -> '\001'
  | Redzone -> '\002'
  | Freed -> '\003'

let decode = function
  | '\000' -> Unallocated
  | '\001' -> Addressable
  | '\002' -> Redzone
  | '\003' -> Freed
  | _ -> assert false

let create ~arena_size =
  let size = max 64 (Giantsan_util.Bitops.align_up 8 arena_size) in
  { flags = Bytes.make size '\000'; owners = Array.make (size / 8) None; size }

let check t lo hi =
  if lo < 0 || hi > t.size || lo > hi then
    invalid_arg (Printf.sprintf "Oracle: bad range [%d, %d)" lo hi)

let state t addr =
  check t addr (addr + 1);
  decode (Bytes.get t.flags addr)

let set_range t ~lo ~hi st =
  check t lo hi;
  Bytes.fill t.flags lo (hi - lo) (code st)

let range_addressable t ~lo ~hi =
  check t lo hi;
  let rec go i = i >= hi || (Bytes.get t.flags i = '\001' && go (i + 1)) in
  go lo

let first_bad t ~lo ~hi =
  check t lo hi;
  let rec go i =
    if i >= hi then None
    else if Bytes.get t.flags i <> '\001' then Some i
    else go (i + 1)
  in
  go lo

let set_owner t ~lo ~hi obj =
  check t lo hi;
  if hi > lo then
    for seg = lo / 8 to (hi - 1) / 8 do
      t.owners.(seg) <- obj
    done

let owner t addr =
  check t addr (addr + 1);
  t.owners.(addr / 8)

(* Eight unchecked loads and no closure: the self-check asks this once per
   shadow word of every audit, and it must allocate nothing. *)
let[@inline] word_unowned t seg =
  let o = t.owners in
  seg >= 0
  && seg + 8 <= Array.length o
  && Array.unsafe_get o seg == None
  && Array.unsafe_get o (seg + 1) == None
  && Array.unsafe_get o (seg + 2) == None
  && Array.unsafe_get o (seg + 3) == None
  && Array.unsafe_get o (seg + 4) == None
  && Array.unsafe_get o (seg + 5) == None
  && Array.unsafe_get o (seg + 6) == None
  && Array.unsafe_get o (seg + 7) == None

let owner_run_start t ~lo seg =
  if lo < 0 || seg < lo || seg >= Array.length t.owners then
    invalid_arg (Printf.sprintf "Oracle: bad segment run [%d, %d]" lo seg);
  let o = t.owners in
  let slot = Array.unsafe_get o seg in
  let s = ref seg in
  while !s > lo && Array.unsafe_get o (!s - 1) == slot do
    decr s
  done;
  !s

let fold_owners t f acc =
  Array.fold_left
    (fun acc slot -> match slot with Some o -> f acc o | None -> acc)
    acc t.owners

type snapshot = { s_flags : Bytes.t; s_owners : Memobj.t option array }

let snapshot t = { s_flags = Bytes.copy t.flags; s_owners = Array.copy t.owners }

let restore t s =
  assert (Bytes.length s.s_flags = t.size);
  Bytes.blit s.s_flags 0 t.flags 0 t.size;
  Array.blit s.s_owners 0 t.owners 0 (Array.length t.owners)

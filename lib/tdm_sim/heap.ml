(* Parallel arrays: slot [i] holds the entry (keys.(i), seqs.(i),
   values.(i)).  [seqs] numbers pushes, so ties on the key pop in push
   order. *)
type t = {
  mutable keys : float array;
  mutable seqs : int array;
  mutable values : int array;
  mutable len : int;
  mutable next_seq : int;
}

let create ?(capacity = 0) () =
  {
    keys = Array.make capacity 0.0;
    seqs = Array.make capacity 0;
    values = Array.make capacity 0;
    len = 0;
    next_seq = 0;
  }

let clear h =
  h.len <- 0;
  h.next_seq <- 0

let is_empty h = h.len = 0
let size h = h.len

(* [before h key seq j]: the entry (key, seq) orders strictly before
   slot [j]; [precedes h i key seq]: slot [i] orders strictly before
   the entry. *)
let[@inline] before h key seq j =
  let kj = h.keys.(j) in
  key < kj || (key = kj && seq < h.seqs.(j))

let[@inline] precedes h i key seq =
  let ki = h.keys.(i) in
  ki < key || (ki = key && h.seqs.(i) < seq)

let[@inline] move h ~src ~dst =
  h.keys.(dst) <- h.keys.(src);
  h.seqs.(dst) <- h.seqs.(src);
  h.values.(dst) <- h.values.(src)

let grow h =
  let ncap = Int.max 8 (2 * Array.length h.keys) in
  let extend a fill =
    let fresh = Array.make ncap fill in
    Array.blit a 0 fresh 0 h.len;
    fresh
  in
  h.keys <- extend h.keys 0.0;
  h.seqs <- extend h.seqs 0;
  h.values <- extend h.values 0

(* Both sifts move a hole instead of swapping: parents (children) that
   order after (before) the entry being placed shift into the hole, and
   the entry lands where the shifting stops. *)

let[@inline] push h key value =
  if h.len >= Array.length h.keys then grow h;
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  let i = ref h.len in
  h.len <- h.len + 1;
  while !i > 0 && before h key seq ((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    move h ~src:parent ~dst:!i;
    i := parent
  done;
  h.keys.(!i) <- key;
  h.seqs.(!i) <- seq;
  h.values.(!i) <- value

(* Reading the key here, where [push] is inlined, keeps it unboxed. *)
let push_keyed h keys value = push h keys.(value) value

let take h =
  if h.len = 0 then invalid_arg "Heap.take: empty heap";
  let top = h.values.(0) in
  let len = h.len - 1 in
  h.len <- len;
  if len > 0 then begin
    let key = h.keys.(len) and seq = h.seqs.(len) and value = h.values.(len) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      (* the smallest of the entry and the hole's children, compared
         in the order of a textbook swap-based sift *)
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest =
        if l < len && precedes h l key seq then
          if r < len && precedes h r h.keys.(l) h.seqs.(l) then r else l
        else if r < len && precedes h r key seq then r
        else -1
      in
      if smallest < 0 then sifting := false
      else begin
        move h ~src:smallest ~dst:!i;
        i := smallest
      end
    done;
    h.keys.(!i) <- key;
    h.seqs.(!i) <- seq;
    h.values.(!i) <- value
  end;
  top

let pop h =
  if h.len = 0 then None
  else begin
    let key = h.keys.(0) in
    Some (key, take h)
  end

let peek h = if h.len = 0 then None else Some (h.keys.(0), h.values.(0))

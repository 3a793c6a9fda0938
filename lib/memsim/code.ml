type region = { base : int; len : int }

type allocator = { mutable next : int }

(* Instruction addresses live in their own space; the base offset merely
   keeps them visually distinct from data addresses in traces. *)
let allocator () = { next = 0x4000_0000 }

let alloc a ~len =
  if len < 0 then invalid_arg "Code.alloc: negative length";
  let base = a.next in
  (* Align regions to 64 bytes, so two regions never share a first-level
     line on any of the modelled machines (those lines are 32 or 64
     bytes).  They can share a 128-byte SPARC L2 line.  Every simulated
     figure depends on these addresses, so the alignment stays. *)
  a.next <- (base + len + 63) land lnot 63;
  { base; len }

let none = { base = 0; len = 0 }

(* Byte mutations for fuzzing the strict readers: a mutation is a list
   of 1-3 (position, byte) overwrites, each position taken modulo the
   input's length, and a fixed-seed random state keeps every run of
   the suite on the same inputs.  Half the new bytes are digits: a
   changed digit keeps a document well-typed, the damage a decoder
   alone cannot see. *)

let gen =
  let byte = QCheck.Gen.(oneof [ int_bound 255; map (( + ) 48) (int_bound 9) ]) in
  QCheck.(
    list_of_size Gen.(1 -- 3) (pair (int_bound 1_000_000) (make byte)))

let apply muts s =
  if s = "" then s
  else begin
    let b = Bytes.of_string s in
    List.iter
      (fun (pos, byte) -> Bytes.set b (pos mod Bytes.length b) (Char.chr byte))
      muts;
    Bytes.to_string b
  end

let to_alcotest prop =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 1999 |]) prop

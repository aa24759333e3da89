/* Bulk byte primitives for the chunk data plane.

   The pure-OCaml fallbacks move one byte per iteration through the
   Bigarray accessors; on the chunked hot path (line scanning and the
   codec/syscall copy points) that per-byte cost dominates everything
   else, so the three inner loops are memcpy/memchr instead.  The two
   line kernels under Chunkline (a byte table, a trailing-byte strip)
   live here for the same reason.  All bounds checking stays on the
   OCaml side. */

#include <string.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

CAMLprim value eden_chunk_blit_ba_bytes(value ba, value src, value b, value dst,
                                        value len)
{
  memcpy(Bytes_val(b) + Long_val(dst),
         (char *) Caml_ba_data_val(ba) + Long_val(src), Long_val(len));
  return Val_unit;
}

CAMLprim value eden_chunk_blit_string_ba(value s, value src, value ba, value dst,
                                         value len)
{
  memcpy((char *) Caml_ba_data_val(ba) + Long_val(dst),
         String_val(s) + Long_val(src), Long_val(len));
  return Val_unit;
}

/* Position of [c] in [ba[pos, pos+len)], or -1. */
CAMLprim value eden_chunk_memchr(value ba, value pos, value len, value c)
{
  char *base = (char *) Caml_ba_data_val(ba);
  char *p = memchr(base + Long_val(pos), Int_val(c), Long_val(len));
  return Val_long(p == NULL ? -1 : p - base);
}

/* Writes table[ba[pos+i]] to b[dst+i] for i < len; returns dst + len. */
CAMLprim value eden_chunk_tr(value table, value ba, value pos, value len, value b,
                             value dst)
{
  const unsigned char *t = (const unsigned char *) String_val(table);
  const unsigned char *src = (unsigned char *) Caml_ba_data_val(ba) + Long_val(pos);
  unsigned char *out = Bytes_val(b) + Long_val(dst);
  intnat n = Long_val(len);
  for (intnat i = 0; i < n; i++) out[i] = t[src[i]];
  return Val_long(Long_val(dst) + n);
}

CAMLprim value eden_chunk_tr_byte(value *argv, int argn)
{
  (void) argn;
  return eden_chunk_tr(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5]);
}

/* Copies ba[pos, pos+len) to b at dst, and before writing each '\n'
   steps back over the bytes [strip] marks non-zero; returns the new
   end.  The step back may reach into bytes written by earlier calls
   (a line split across slices) but stops at b's start, and at any
   earlier '\n' because [strip] is zero there. */
CAMLprim value eden_chunk_rstrip(value strip, value ba, value pos, value len,
                                 value b, value dst)
{
  const unsigned char *t = (const unsigned char *) String_val(strip);
  const char *src = (char *) Caml_ba_data_val(ba) + Long_val(pos);
  const char *end = src + Long_val(len);
  unsigned char *start = Bytes_val(b);
  unsigned char *out = start + Long_val(dst);
  while (src < end) {
    const char *nl = memchr(src, '\n', end - src);
    size_t n = (nl == NULL ? end : nl) - src;
    memcpy(out, src, n);
    out += n;
    if (nl == NULL) break;
    while (out > start && t[out[-1]]) out--;
    *out++ = '\n';
    src = nl + 1;
  }
  return Val_long(out - start);
}

CAMLprim value eden_chunk_rstrip_byte(value *argv, int argn)
{
  (void) argn;
  return eden_chunk_rstrip(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5]);
}

package engine

import (
	"bufio"
	"io"
)

// LineReader reads a line-delimited stream — a checkpoint, a ledger, the
// worker protocol — without copying what it reads: a line is a view of
// the reader's buffer, valid until the next call to Next. Only a line
// longer than the buffer is copied, into storage the reader keeps for the
// next overlong line.
type LineReader struct {
	r    *bufio.Reader
	long []byte
}

// NewLineReader reads r through a 64 KiB buffer.
func NewLineReader(r io.Reader) *LineReader {
	return &LineReader{r: bufio.NewReaderSize(r, 1<<16)}
}

// Next returns what bufio.Reader.ReadBytes('\n') would: the next line,
// its newline included, and the error that ended it (io.EOF after the
// last line, which may then be non-empty and unterminated).
func (lr *LineReader) Next() ([]byte, error) {
	line, err := lr.r.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	lr.long = append(lr.long[:0], line...)
	for {
		line, err = lr.r.ReadSlice('\n')
		lr.long = append(lr.long, line...)
		if err != bufio.ErrBufferFull {
			return lr.long, err
		}
	}
}

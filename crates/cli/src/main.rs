//! The `certainty` binary: runs [`cqa_cli::run`] on the command line and
//! reports its error, if any, on stderr with a failing exit status.

use std::io::{self, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut out = io::BufWriter::new(io::stdout().lock());
    let ran = cqa_cli::run(std::env::args().skip(1), &mut out);
    let Err(e) = ran.and_then(|()| out.flush().map_err(Into::into)) else {
        return ExitCode::SUCCESS;
    };
    // A reader that closed the pipe early (`certainty repairs big.cqa |
    // head`) has read all it wanted.
    if e.downcast_ref::<io::Error>()
        .is_some_and(|e| e.kind() == io::ErrorKind::BrokenPipe)
    {
        return ExitCode::SUCCESS;
    }
    eprintln!("error: {e}");
    ExitCode::FAILURE
}
